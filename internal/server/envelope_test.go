package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// Internal pins for the uniform error envelope: every non-2xx body is
// {error, code, trace_id, retry_after_ms?}, with the trace read back from
// the response header beginRequest stamps and the retry hint shipped at
// millisecond precision alongside the whole-second Retry-After header.

func TestDefaultErrorCodeMapping(t *testing.T) {
	cases := map[int]string{
		http.StatusBadRequest:          CodeBadRequest,
		http.StatusUnauthorized:        CodeUnauthorized,
		http.StatusForbidden:           CodeForbidden,
		http.StatusNotFound:            CodeNotFound,
		http.StatusConflict:            CodeConflict,
		http.StatusTooManyRequests:     CodeOverloaded,
		http.StatusServiceUnavailable:  CodeUnavailable,
		http.StatusGatewayTimeout:      CodeDeadline,
		http.StatusInternalServerError: CodeInternal,
		http.StatusTeapot:              CodeInternal, // anything unmapped
	}
	for status, want := range cases {
		if got := defaultErrorCode(status); got != want {
			t.Errorf("defaultErrorCode(%d) = %q, want %q", status, got, want)
		}
	}
}

func TestWriteErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set(TraceHeader, "trace-42")
	writeEnvelope(rec, errStatus(http.StatusNotFound, "unknown namespace \"x\""))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	var env ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	want := ErrorResponse{Error: "unknown namespace \"x\"", Code: CodeNotFound, TraceID: "trace-42"}
	if env != want {
		t.Fatalf("envelope = %+v, want %+v", env, want)
	}
}

// TestWriteRetryErrorSubSecondHint pins the Retry-After precision fix: the
// header must stay whole-seconds (rounded up, per RFC 9110) while the
// envelope carries the exact hint in milliseconds — a 250ms queue hint
// must not become a 1s client sleep.
func TestWriteRetryErrorSubSecondHint(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set(TraceHeader, "t")
	writeEnvelope(rec, errRetry(http.StatusServiceUnavailable, CodeBusy, "busy", 250*time.Millisecond))
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want the rounded-up \"1\"", got)
	}
	var env ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.RetryAfterMS != 250 {
		t.Fatalf("retry_after_ms = %d, want 250", env.RetryAfterMS)
	}
	if env.Code != CodeBusy || env.TraceID != "t" {
		t.Fatalf("envelope = %+v", env)
	}

	// A sub-millisecond (but nonzero) hint must not round to "retry never".
	rec = httptest.NewRecorder()
	writeEnvelope(rec, errRetry(http.StatusTooManyRequests, CodeOverloaded, "overloaded", 100*time.Microsecond))
	env = ErrorResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.RetryAfterMS != 1 {
		t.Fatalf("sub-ms hint: retry_after_ms = %d, want 1", env.RetryAfterMS)
	}
}

// TestGoldenWireShapes pins the exact JSON the new replication surface
// emits — a renamed or dropped tag fails here before it breaks a follower
// or a dashboard.
func TestGoldenWireShapes(t *testing.T) {
	goldens := []struct {
		name string
		v    any
		want string
	}{
		{
			name: "error envelope",
			v:    ErrorResponse{Error: "x", Code: CodeBadRequest, TraceID: "t", RetryAfterMS: 250},
			want: `{"error":"x","code":"bad_request","trace_id":"t","retry_after_ms":250}`,
		},
		{
			name: "error envelope minimal",
			v:    ErrorResponse{Error: "x"},
			want: `{"error":"x"}`,
		},
		{
			name: "replication info",
			v: ReplicationInfo{
				Role: "follower", Leader: "http://leader:7029", LastSeq: 8, LeaderSeq: 9,
				LagRecords: 1, LagMS: 120, Connected: true, RecordsReplicated: 8, Resyncs: 1,
			},
			want: `{"role":"follower","leader":"http://leader:7029","last_seq":8,"leader_seq":9,` +
				`"lag_records":1,"lag_ms":120,"connected":true,"records_replicated":8,"resyncs":1}`,
		},
		{
			name: "promote response",
			v:    PromoteResponse{Promoted: true, Namespaces: []string{"default", "dur"}},
			want: `{"promoted":true,"namespaces":["default","dur"]}`,
		},
		{
			name: "replication manifest",
			v: ReplicationManifest{Namespaces: []ReplicaNamespace{
				{Name: "dur", Spec: "rmat:scale=5,degree=3,labels=2,seed=41,machines=2", LastSeq: 9, CheckpointSeq: 0, Epoch: 9},
			}},
			want: `{"namespaces":[{"name":"dur","spec":"rmat:scale=5,degree=3,labels=2,seed=41,machines=2",` +
				`"last_seq":9,"checkpoint_seq":0,"epoch":9}]}`,
		},
		{
			name: "stream error record with code",
			v:    Record{Type: RecordError, Error: "boom", Code: CodeInternal, TraceID: "t"},
			want: `{"type":"error","error":"boom","code":"internal","trace_id":"t"}`,
		},
	}
	for _, g := range goldens {
		raw, err := json.Marshal(g.v)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if string(raw) != g.want {
			t.Errorf("%s:\n got %s\nwant %s", g.name, raw, g.want)
		}
	}
}
