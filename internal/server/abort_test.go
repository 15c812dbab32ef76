package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stwig/internal/server"
)

// smallBufferListener makes every accepted connection's kernel send buffer
// small, so what is in flight between the server and a slow reader is
// bounded by the buffers below and not by the kernel's autotuning.
type smallBufferListener struct{ net.Listener }

func (l smallBufferListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(32 << 10)
	}
	return c, err
}

// TestAbortEndsAnInFlightQuery: Server.Abort — the daemon's hard stop when
// its drain window expires — ends a /query whose client is still draining a
// long answer. The wedge pattern on a one-label graph has an answer of
// hundreds of megabytes, which this client, reading 32 KB every 5 ms
// through small socket buffers, would take minutes to drain. Once the
// abort lands, the stream must end within a second or two, with a
// "canceled" error record, and a query sent after it must be refused.
func TestAbortEndsAnInFlightQuery(t *testing.T) {
	svc, err := server.New(newEngine(t, 12, 8, 1, 4), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewUnstartedServer(svc)
	ts.Listener = smallBufferListener{ts.Listener}
	ts.Start()
	t.Cleanup(ts.Close)
	hc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetReadBuffer(32 << 10)
			}
			return c, err
		},
	}}
	t.Cleanup(hc.CloseIdleConnections)

	const wedge = `{"pattern":"(a:L0)-(b:L0), (b)-(c:L0)"}`
	resp, err := hc.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(wedge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var got bytes.Buffer
	chunk := make([]byte, 32<<10)
	var aborted time.Time
	bound := 2 * time.Second
	if raceEnabled {
		bound = 10 * time.Second
	}
	for {
		n, err := resp.Body.Read(chunk)
		got.Write(chunk[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading the stream: %v", err)
		}
		switch {
		case aborted.IsZero() && got.Len() >= 256<<10:
			aborted = time.Now()
			svc.Abort()
		case !aborted.IsZero() && time.Since(aborted) > bound:
			t.Fatalf("the stream still runs %v after Abort (%d bytes read)", bound, got.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if aborted.IsZero() {
		t.Fatalf("the answer ended after %d bytes, before the test could abort it", got.Len())
	}
	t.Logf("the stream ended %v after Abort, %d bytes in all", time.Since(aborted).Round(time.Millisecond), got.Len())

	lines := bytes.Split(bytes.TrimSuffix(got.Bytes(), []byte("\n")), []byte("\n"))
	var last server.Record
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if last.Type != server.RecordError || last.Code != server.CodeCanceled {
		t.Fatalf("the aborted stream ended with %+v, want a %q error record", last, server.CodeCanceled)
	}

	// A query that starts after the abort is born cancelled.
	after, err := hc.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(wedge))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(after.Body)
	after.Body.Close()
	if after.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(server.CodeCanceled)) {
		t.Fatalf("a query after Abort got %d %s, want 503 %s", after.StatusCode, body, server.CodeCanceled)
	}
}
