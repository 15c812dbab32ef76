package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"stwig/internal/server"
)

// opTimeout bounds one operation (and one boot): a daemon that stops
// answering fails the workload instead of hanging the run.
const opTimeout = 60 * time.Second

// opSample is what the timed client learns from one operation.
type opSample struct {
	// start is when the request was written.
	start time.Time
	// headerNs is request written → response headers parsed (the handler
	// defers the 200 to the first match block, so this is time to first
	// match); totalNs is request written → terminal record read.
	headerNs, totalNs int64
	// bodyBytes and lines count the response body; for a query, lines-1 is
	// the number of match records.
	bodyBytes, lines int
	// stats is the query's terminal record; ack the update's reply.
	stats *server.StreamStats
	ack   server.UpdateResponse
}

// conn is the timed client: one keep-alive connection driven from the calling
// goroutine, writing prebuilt requests and reading responses without decoding
// them. It counts newlines and keeps only the stream's tail, from which the
// terminal record is parsed after the clock has stopped — so the measured
// wall is the daemon's, not the load generator's JSON decoder.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
	tail []byte
}

// tailKeep is how much of a stream's end is kept to find the terminal
// record in (a merged trailer with two shard legs is ~700 bytes).
const tailKeep = 8 << 10

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), buf: make([]byte, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do runs one operation and fills s. Any transport error, non-200 status,
// error record, or a query whose match records disagree with its own
// trailer is returned as an error; the connection is then unusable.
func (c *conn) do(o *op, s *opSample) error {
	c.c.SetDeadline(time.Now().Add(opTimeout))
	start := time.Now()
	s.start = start
	if _, err := c.c.Write(o.req); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	s.headerNs = int64(time.Since(start))
	c.tail = c.tail[:0]
	s.bodyBytes, s.lines = 0, 0
	for {
		n, err := resp.Body.Read(c.buf)
		if n > 0 {
			s.bodyBytes += n
			s.lines += bytes.Count(c.buf[:n], []byte{'\n'})
			c.tail = append(c.tail, c.buf[:n]...)
			if len(c.tail) > 2*tailKeep {
				c.tail = append(c.tail[:0], c.tail[len(c.tail)-tailKeep:]...)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	s.totalNs = int64(time.Since(start))
	resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.tail))
	}
	if !o.isQuery() {
		return json.Unmarshal(c.tail, &s.ack)
	}
	last := bytes.TrimRight(c.tail, "\n")
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var rec server.Record
	if err := json.Unmarshal(last, &rec); err != nil {
		return fmt.Errorf("terminal record: %w", err)
	}
	if rec.Type != server.RecordStats || rec.Stats == nil {
		return fmt.Errorf("stream ended with a %q record: %s", rec.Type, rec.Error)
	}
	s.stats = rec.Stats
	if s.lines-1 != rec.Stats.Matches {
		return fmt.Errorf("%d match records on the wire, trailer says %d", s.lines-1, rec.Stats.Matches)
	}
	return nil
}
