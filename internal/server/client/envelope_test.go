package client_test

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stwig/internal/server"
	"stwig/internal/server/client"
)

// TestStatusErrorParsesEnvelope pins the client side of the error-envelope
// contract: code, trace_id, and the millisecond retry hint all come from
// the body, with retry_after_ms preferred over the coarse Retry-After
// header — a 250ms server hint must not become a 1s client sleep.
func TestStatusErrorParsesEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set(server.TraceHeader, "header-trace")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.ErrorResponse{
			Error: "busy", Code: server.CodeBusy, TraceID: "body-trace", RetryAfterMS: 250,
		})
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetry(0, 0))
	_, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	se, ok := err.(*client.StatusError)
	if !ok {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.Code != server.CodeBusy {
		t.Errorf("Code = %q, want %q", se.Code, server.CodeBusy)
	}
	if se.TraceID != "body-trace" {
		t.Errorf("TraceID = %q, want the envelope's, not the header's", se.TraceID)
	}
	if se.RetryAfter != 250*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 250ms from retry_after_ms, not 1s from Retry-After", se.RetryAfter)
	}
	if !client.IsBusy(err) {
		t.Error("IsBusy must recognize the parsed 503")
	}
}

// TestStatusErrorHeaderFallback: a bare (or non-envelope) error body falls
// back to the Retry-After header and trace header, and the code defaults
// empty rather than inventing one.
func TestStatusErrorHeaderFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.Header().Set(server.TraceHeader, "header-trace")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("gateway says no"))
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetry(0, 0))
	_, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	se, ok := err.(*client.StatusError)
	if !ok {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.RetryAfter != 2*time.Second {
		t.Errorf("RetryAfter = %v, want the 2s header fallback", se.RetryAfter)
	}
	if se.TraceID != "header-trace" {
		t.Errorf("TraceID = %q, want the header fallback", se.TraceID)
	}
	if se.Code != "" {
		t.Errorf("Code = %q, want empty for a non-envelope body", se.Code)
	}
}

// goldenWALFrames is the same two-record framing the journal package pins
// (seq 1 body "stwig", seq 2 body "wal") — here it plays the wire role: a
// /wal response body Follow must decode.
const goldenWALFrames = "0d00000013689abe010000000000000073747769670b0000006d01b75a020000000000000077616c"

// TestFollowDecodesWALResponse pins the Follow helper against a canned
// leader: cursor and wait propagate as query parameters, the position
// headers come back parsed, and each framed record is delivered in order.
func TestFollowDecodesWALResponse(t *testing.T) {
	frames, err := hex.DecodeString(goldenWALFrames)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ns/dur/wal" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		if got := r.URL.Query().Get("from"); got != "0" {
			t.Errorf("from = %q, want 0", got)
		}
		if got := r.URL.Query().Get("wait_ms"); got != "1500" {
			t.Errorf("wait_ms = %q, want 1500", got)
		}
		w.Header().Set(server.LeaderSeqHeader, "2")
		w.Header().Set(server.CheckpointSeqHeader, "0")
		w.Write(frames)
	}))
	defer ts.Close()

	var got []uint64
	pos, err := client.New(ts.URL).Namespace("dur").Follow(context.Background(), 0, 1500*time.Millisecond,
		func(seq uint64, body []byte) bool {
			got = append(got, seq)
			return true
		})
	if err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if pos.LeaderSeq != 2 || pos.CheckpointSeq != 0 {
		t.Fatalf("position = %+v, want leader 2 checkpoint 0", pos)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered seqs = %v, want [1 2]", got)
	}
}
