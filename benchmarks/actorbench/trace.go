package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// traceSampleEvery thins the serving spans that are written out: every op is
// paired and counted in memory, one op in this many keeps its two spans in
// the file, which stays a few megabytes instead of a few hundred.
const traceSampleEvery = 64

// span is one line of <workload>.trace.jsonl. Times are nanoseconds since
// the traced window (serving) or the traced op (batch) started. Parent is
// the ID of the span that caused this one, 0 for a root; spans of one op
// share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog holds a run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add stores a span and returns its ID. Safe for concurrent use: batch
// mirrors record from inside internal/parallel fan-outs.
func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// finish sets the end of a span that was added before its children.
func (l *spanLog) finish(id int, end int64) {
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}

// write stores the spans as JSON lines at path, creating its directory.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
