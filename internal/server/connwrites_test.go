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

// TestMatchStreamConnWrites pins how a match stream reaches the socket: the
// first block at once, then writes of at least 32 KB until the last, each of
// which net/http's chunked writer puts on the wire in at most three
// syscalls, and then net/http's terminating chunk. So a stream of 4,000+
// four-vertex matches may take at most 3 × (⌈body / 32 KB⌉ + 1) + 1 writes
// on the client's connection, served by one daemon and by a coordinator over
// two shards alike. (One write and one flush per engine block, or per leg
// read on a coordinator, cost 94 and 91 writes for this 351 KB stream, where
// the limit is 37.)
func TestMatchStreamConnWrites(t *testing.T) {
	const (
		pattern  = "(a:L1)-(b:L2), (b)-(c:L3), (c)-(d:L0)"
		minMatch = 4000
		unit     = 32 << 10
	)
	engine := func() *core.Engine { return newEngine(t, 11, 8, 8, 4) }
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
		t.Run(side.name, func(t *testing.T) {
			ts := httptest.NewUnstartedServer(side.h)
			counter := &writeCountingListener{Listener: ts.Listener}
			ts.Listener = counter
			ts.Start()
			t.Cleanup(ts.Close)

			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"pattern":"`+pattern+`"}`))
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
			if matches < minMatch || !bytes.Contains(body, []byte(`{"type":"stats",`)) {
				t.Fatalf("%d matches and no trailer in %d bytes; want a whole stream of at least %d", matches, len(body), minMatch)
			}
			units := (len(body) + unit - 1) / unit
			t.Logf("%d matches, %d bytes: %d writes on the client's connection", matches, len(body), writes)
			if limit := int64(3*(units+1) + 1); writes > limit {
				t.Errorf("%d writes for a %d-byte stream, want at most %d", writes, len(body), limit)
			}
		})
	}
}
