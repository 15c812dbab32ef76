package server_test

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"stwig/internal/core"
	"stwig/internal/server"
)

// writeCountingListener counts the Write calls made on the connections it
// accepts: one per write syscall the server makes.
type writeCountingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, writes: &l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestMatchStreamConnWrites pins how a match stream reaches the socket, served
// by one daemon and by a coordinator over two shards alike. Records go out
// in writes of at least 32 KB until the last, each of which net/http's
// chunked writer puts on the wire in at most two syscalls, and the handler's
// return flushes the last together with the terminating chunk: a stream of
// 4,000+ four-vertex matches may take at most 2 × ⌈body / 32 KB⌉ + 1 writes
// on the client's connection (with the first engine block written and
// flushed alone, and every unit flushed, this 351 KB stream took 34 and 25
// writes). An answer smaller than net/http's 2 KB buffer goes out with a
// Content-Length, header and body in exactly one write (it took three).
func TestMatchStreamConnWrites(t *testing.T) {
	const unit = 32 << 10
	for _, c := range []struct {
		suffix, pattern    string
		labels             int
		minMatch, maxBytes int
		limit              func(body int) int64
	}{
		{"", "(a:L1)-(b:L2), (b)-(c:L3), (c)-(d:L0)", 8, 4000, 1 << 30,
			func(body int) int64 { return int64(2*((body+unit-1)/unit) + 1) }},
		{"_small_answer", "(a:L60)-(b:L49), (b)-(c:L54), (c)-(d:L50)", 64, 6, 2 << 10,
			func(int) int64 { return 1 }},
	} {
		engine := func() *core.Engine { return newEngine(t, 11, 8, c.labels, 4) }
		local, err := server.New(engine(), server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(local.Close)
		tc := newTestClusterOn(t, 2, engine)

		for _, side := range []struct {
			name string
			h    http.Handler
		}{{"local", local}, {"coordinator", tc.coord}} {
			t.Run(side.name+c.suffix, func(t *testing.T) {
				ts := httptest.NewUnstartedServer(side.h)
				counter := &writeCountingListener{Listener: ts.Listener}
				ts.Listener = counter
				ts.Start()
				t.Cleanup(ts.Close)

				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"pattern":"`+c.pattern+`"}`))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, %v", resp.StatusCode, err)
				}
				writes := counter.writes.Load()

				matches := bytes.Count(body, []byte(`{"type":"match",`))
				if matches < c.minMatch || len(body) >= c.maxBytes || !bytes.Contains(body, []byte(`{"type":"stats",`)) {
					t.Fatalf("%d matches in %d bytes; want a whole stream of at least %d matches, under %d bytes", matches, len(body), c.minMatch, c.maxBytes)
				}
				t.Logf("%d matches, %d bytes: %d writes on the client's connection", matches, len(body), writes)
				if limit := c.limit(len(body)); writes > limit {
					t.Errorf("%d writes for a %d-byte stream, want at most %d", writes, len(body), limit)
				}
				if len(body) < 2<<10 && resp.ContentLength != int64(len(body)) {
					t.Errorf("a %d-byte answer went out with Content-Length %d, want it whole", len(body), resp.ContentLength)
				}
			})
		}
	}
}
