package actor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestPredictMemoRoundTrip(t *testing.T) {
	m := new(bodyMemo)
	key := []byte("\x01\x00\x00\x00\x01\x00k")
	if got := m.get(key); got != nil {
		t.Fatalf("empty memo returned %q", got)
	}
	m.put(key, []byte("body"))
	if got := m.get(key); !bytes.Equal(got, []byte("body")) {
		t.Fatalf("get = %q, want body", got)
	}
	// The installed entry owns copies: mutating the caller's slices must not
	// reach the cache (both are pooled scratch in the server).
	key2 := append([]byte(nil), key...)
	key[0] = 0xff
	if got := m.get(key2); !bytes.Equal(got, []byte("body")) {
		t.Fatalf("entry aliased the caller's key: get = %q", got)
	}
}

func TestPredictMemoBounded(t *testing.T) {
	m := new(bodyMemo)
	total := memoSets * memoWays
	for i := 0; i < 4*total; i++ {
		m.put([]byte(fmt.Sprintf("key-%d", i)), []byte("r"))
	}
	if n := m.entries(); n > total {
		t.Fatalf("memo holds %d entries, capacity is %d", n, total)
	}
	// Oversized responses are never cached.
	big := make([]byte, memoMaxResp+1)
	m.put([]byte("big"), big)
	if m.get([]byte("big")) != nil {
		t.Fatal("oversized response was cached")
	}
}

// sameSetKeys returns n distinct keys that all land in one set.
func sameSetKeys(n int) [][]byte {
	set := memoHash([]byte("seed")) & (memoSets - 1)
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if memoHash(k)&(memoSets-1) == set {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPredictMemoEvictsInTurn fills one set and checks that a full set
// evicts its ways in turn, whatever was read in between: hits leave no
// trace.
func TestPredictMemoEvictsInTurn(t *testing.T) {
	m := new(bodyMemo)
	keys := sameSetKeys(2*memoWays + 1)
	for _, k := range keys[:memoWays] {
		m.put(k, k)
	}
	for i, k := range keys[memoWays:] {
		// Reading the next victim first must not save it.
		victim := keys[i]
		if m.get(victim) == nil {
			t.Fatalf("key %q missing before its turn", victim)
		}
		m.put(k, k)
		if m.get(victim) != nil {
			t.Errorf("put %d: key %q survived its turn", i, victim)
		}
		for _, live := range keys[i+1 : memoWays+i+1] {
			if got := m.get(live); !bytes.Equal(got, live) {
				t.Errorf("put %d: key %q = %q, want itself", i, live, got)
			}
		}
	}
	// Installing a resident key again evicts nothing.
	last := keys[len(keys)-memoWays:]
	m.put(last[0], last[0])
	for _, k := range last {
		if got := m.get(k); !bytes.Equal(got, k) {
			t.Errorf("re-put evicted %q", k)
		}
	}
}

// TestSwapBankStartsAFreshMemo: the state SwapBank installs carries an
// empty predict memo, so the previous bank's cached bodies are gone with
// its state and the next request is predicted by the new bank.
func TestSwapBankStartsAFreshMemo(t *testing.T) {
	train := func(opts ...Option) (*Engine, *Bank) {
		t.Helper()
		eng, err := New(append([]Option{WithFast(), WithRepetitions(1), WithMLR()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		bank, err := eng.Train(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return eng, bank
	}
	eng, bankA := train()
	_, bankB := train(WithRepetitions(2))
	srv, err := NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	body, err := json.Marshal(PredictRequest{Phase: "x", Rates: testRates(bankA, 1.1)})
	if err != nil {
		t.Fatal(err)
	}
	predict := func() string {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict = %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	old := srv.state.Load()
	first := predict()
	if n := old.memo.entries(); n != 1 {
		t.Fatalf("bank A's memo holds %d entries after one body, want 1", n)
	}
	if err := srv.SwapBank(bankB); err != nil {
		t.Fatal(err)
	}
	st := srv.state.Load()
	if n := st.memo.entries(); n != 0 {
		t.Fatalf("memo holds %d entries right after SwapBank, want 0", n)
	}
	for i := range old.memo.lines {
		if e := old.memo.lines[i].Load(); e != nil && st.memo.get(e.key) != nil {
			t.Errorf("the new state's memo serves bank A's key %q", e.key)
		}
	}
	if got := predict(); got == first {
		t.Error("bank A's body served after the swap to bank B")
	}
	if n := st.memo.entries(); n != 1 {
		t.Errorf("bank B's memo holds %d entries after one body, want 1", n)
	}
}

// FuzzBodyMemo drives a put/get sequence over keys forced into two sets.
// Each op byte picks a key by its low six bits; bit 7 makes it a put, and
// bit 6 makes that put oversized. A hit returns exactly the bytes installed
// for its key, a key just put (if not oversized) is served next, no more
// than sets × ways lines are held, and nothing over memoMaxResp is cached.
func FuzzBodyMemo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x80, 0x81, 0xff})
	f.Add([]byte{0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0xd8, 0x98, 24})
	// Six keys per way of one set, so a set is filled and cycled many times
	// over, and one key of another set.
	keys := sameSetKeys(6 * memoWays)
	other := []byte("other-set")
	for memoHash(other)&(memoSets-1) == memoHash(keys[0])&(memoSets-1) {
		other = append(other, '!')
	}
	keys = append(keys, other)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := new(bodyMemo)
		installed := map[string][]byte{}
		for i, op := range ops {
			k := keys[int(op&0x3f)%len(keys)]
			if op&0x80 == 0 {
				if got := m.get(k); got != nil && !bytes.Equal(got, installed[string(k)]) {
					t.Fatalf("op %d: get %q = %q, installed %q", i, k, got, installed[string(k)])
				}
				continue
			}
			resp := []byte(fmt.Sprintf("%s#%d", k, i))
			if op&0x40 != 0 {
				resp = make([]byte, memoMaxResp+1)
			}
			had := m.get(k)
			m.put(k, resp)
			got := m.get(k)
			switch {
			case len(resp) > memoMaxResp:
				if !bytes.Equal(got, had) {
					t.Fatalf("op %d: an oversized put changed %q", i, k)
				}
			case had != nil:
				if !bytes.Equal(got, had) {
					t.Fatalf("op %d: re-put of resident %q replaced its body", i, k)
				}
			default:
				if !bytes.Equal(got, resp) {
					t.Fatalf("op %d: key %q just put is not served", i, k)
				}
				installed[string(k)] = resp
			}
			if n := m.entries(); n > memoSets*memoWays {
				t.Fatalf("op %d: %d lines held, capacity %d", i, n, memoSets*memoWays)
			}
		}
		for i := range m.lines {
			if e := m.lines[i].Load(); e != nil && len(e.resp) > memoMaxResp {
				t.Fatalf("line %d caches a %d-byte body", i, len(e.resp))
			}
		}
	})
}

// TestPredictMemoConcurrent hammers overlapping keys from many goroutines;
// run under -race this is the lock-free probe's data-race check. Every hit
// must return the exact body installed for that key.
func TestPredictMemoConcurrent(t *testing.T) {
	m := new(bodyMemo)
	const goroutines = 8
	const keySpace = 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := (g*31 + i) % keySpace
				key := []byte(fmt.Sprintf("key-%d", id))
				want := []byte(fmt.Sprintf("resp-%d", id))
				if got := m.get(key); got != nil && !bytes.Equal(got, want) {
					t.Errorf("key %q returned %q", key, got)
					return
				}
				m.put(key, want)
			}
		}(g)
	}
	wg.Wait()
}

// entries counts installed lines (O(sets*ways)).
func (m *bodyMemo) entries() int {
	n := 0
	for i := range m.lines {
		if m.lines[i].Load() != nil {
			n++
		}
	}
	return n
}
