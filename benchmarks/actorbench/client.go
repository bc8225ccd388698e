package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// This file is the lean generator: a raw-socket HTTP/1.1 keep-alive client
// that writes pre-encoded request frames and parses only what it needs of
// the reply (status code, Content-Length or chunked framing). It allocates
// nothing per op, so actor.server.allocs_per_op reads the server alone, and
// its own per-op cost is calibrated against stubServer below.

var (
	crlfcrlf        = []byte("\r\n\r\n")
	hdrContentLen   = []byte("Content-Length: ")
	hdrChunked      = []byte("Transfer-Encoding: chunked")
	errShortMessage = errors.New("actorbench: malformed HTTP message")
)

// frame pre-encodes one request. The result is reused for every send of
// that body; cold predict frames are patched in place between sends.
func frame(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: actorbench\r\n", method, path)
	if method == "POST" {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// frameBody is the body part of a frame.
func frameBody(fr []byte) []byte {
	return fr[bytes.Index(fr, crlfcrlf)+len(crlfcrlf):]
}

// msgReader reads HTTP/1.1 messages (requests or responses) off one
// connection into a fixed buffer that grows only when a message outgrows it.
type msgReader struct {
	c    net.Conn
	buf  []byte
	r, w int // unread bytes are buf[r:w]
}

func newMsgReader(c net.Conn) *msgReader {
	return &msgReader{c: c, buf: make([]byte, 64<<10)}
}

// fill reads more bytes, compacting or growing the buffer when it is full.
func (m *msgReader) fill() error {
	if m.w == len(m.buf) {
		if m.r > 0 {
			m.w = copy(m.buf, m.buf[m.r:m.w])
			m.r = 0
		} else {
			m.buf = append(m.buf, make([]byte, len(m.buf))...)
		}
	}
	n, err := m.c.Read(m.buf[m.w:])
	m.w += n
	if n == 0 && err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// next reads one message and returns its start line and body. Both alias
// the buffer and are valid until the following call.
func (m *msgReader) next() (start, body []byte, err error) {
	if m.r == m.w {
		m.r, m.w = 0, 0
	}
	var hdrEnd int
	for {
		if i := bytes.Index(m.buf[m.r:m.w], crlfcrlf); i >= 0 {
			hdrEnd = m.r + i
			break
		}
		if err := m.fill(); err != nil {
			return nil, nil, err
		}
	}
	hdr := m.buf[m.r:hdrEnd]
	eol := bytes.IndexByte(hdr, '\r')
	if eol < 0 {
		eol = len(hdr)
	}
	startLen := eol
	bodyOff := hdrEnd + len(crlfcrlf) - m.r // offsets are relative to m.r: fill may move the buffer

	if i := bytes.Index(hdr, hdrContentLen); i >= 0 {
		n := 0
		for _, ch := range hdr[i+len(hdrContentLen):] {
			if ch < '0' || ch > '9' {
				break
			}
			n = n*10 + int(ch-'0')
		}
		for m.w-m.r < bodyOff+n {
			if err := m.fill(); err != nil {
				return nil, nil, err
			}
		}
		start = m.buf[m.r : m.r+startLen]
		body = m.buf[m.r+bodyOff : m.r+bodyOff+n]
		m.r += bodyOff + n
		return start, body, nil
	}
	if bytes.Contains(hdr, hdrChunked) {
		// net/http switches to chunked framing once a handler writes more
		// than its 2 KiB buffer without a Content-Length (/v1/eval does).
		// Chunks are compacted in place so body is contiguous.
		pos := bodyOff
		out := bodyOff
		for {
			var lineEnd int
			for {
				if i := bytes.Index(m.buf[m.r+pos:m.w], crlfcrlf[:2]); i >= 0 {
					lineEnd = pos + i
					break
				}
				if err := m.fill(); err != nil {
					return nil, nil, err
				}
			}
			size, ok := parseHex(m.buf[m.r+pos : m.r+lineEnd])
			if !ok {
				return nil, nil, errShortMessage
			}
			pos = lineEnd + 2
			need := pos + size + 2
			for m.w-m.r < need {
				if err := m.fill(); err != nil {
					return nil, nil, err
				}
			}
			if size == 0 {
				start = m.buf[m.r : m.r+startLen]
				body = m.buf[m.r+bodyOff : m.r+out]
				m.r += need
				return start, body, nil
			}
			out += copy(m.buf[m.r+out:], m.buf[m.r+pos:m.r+pos+size])
			pos = need
		}
	}
	// No body (a GET request, or a response without one).
	start = m.buf[m.r : m.r+startLen]
	m.r += bodyOff
	return start, nil, nil
}

// parseHex reads a chunk-size line (extensions are not used by net/http).
func parseHex(b []byte) (n int, ok bool) {
	if len(b) == 0 || len(b) > 7 {
		return 0, false
	}
	for _, ch := range b {
		switch {
		case ch >= '0' && ch <= '9':
			n = n<<4 | int(ch-'0')
		case ch >= 'a' && ch <= 'f':
			n = n<<4 | int(ch-'a'+10)
		case ch >= 'A' && ch <= 'F':
			n = n<<4 | int(ch-'A'+10)
		default:
			return 0, false
		}
	}
	return n, true
}

// client is one persistent connection of the generator.
type client struct {
	c  net.Conn
	rd *msgReader
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{c: c, rd: newMsgReader(c)}, nil
}

func (cl *client) close() { _ = cl.c.Close() }

// roundTrip sends one pre-encoded frame and reads the reply. The body
// aliases the read buffer and is valid until the next roundTrip.
func (cl *client) roundTrip(fr []byte) (status int, body []byte, err error) {
	if _, err := cl.c.Write(fr); err != nil {
		return 0, nil, err
	}
	start, body, err := cl.rd.next()
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(start) < 12 {
		return 0, nil, errShortMessage
	}
	for _, ch := range start[9:12] {
		if ch < '0' || ch > '9' {
			return 0, nil, errShortMessage
		}
		status = status*10 + int(ch-'0')
	}
	return status, body, nil
}

// stubServer answers every request on a loopback listener with one canned
// 200, parsing requests with the same msgReader the client uses. What the
// generator measures against it is its own floor: frame write, kernel
// loopback both ways, reply parse. loadgen.client_self_us is that floor.
type stubServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startStub(reply []byte) (*stubServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stubServer{ln: ln}
	canned := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(reply), reply))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				rd := newMsgReader(c)
				for {
					if _, _, err := rd.next(); err != nil {
						return
					}
					if _, err := c.Write(canned); err != nil {
						return
					}
				}
			}()
		}
	}()
	return s, nil
}

func (s *stubServer) addr() string { return s.ln.Addr().String() }

// stop closes the listener and every accepted connection and waits for the
// serving goroutines to exit.
func (s *stubServer) stop() {
	_ = s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
