// HTTP-level pins for the /v1 surface: every endpoint serves under its
// versioned path only — the unversioned spelling of the same path falls
// through to the uniform 404 — and every non-2xx body, whatever the
// failure, is the uniform error envelope.
package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"stwig/internal/server"
)

// TestV1OnlyRoutesServe walks representative routes: the /v1 mount must
// answer 2xx with no deprecation headers, and the unversioned path — the
// legacy surface, removed — must answer the 404 not_found envelope.
func TestV1OnlyRoutesServe(t *testing.T) {
	eng := newEngine(t, 8, 6, 3, 2)
	_, ts, _ := newTestServer(t, eng, server.Config{})

	queryBody := `{"pattern":"(a:L0)-(b:L1)"}`
	routes := []struct {
		method, path, body string
	}{
		{http.MethodPost, "/query", queryBody},
		{http.MethodPost, "/explain", queryBody},
		{http.MethodPost, "/update", `{"op":"add_node","label":"x"}`},
		{http.MethodGet, "/stats", ""},
		{http.MethodPost, "/ns/default/query", queryBody},
		{http.MethodGet, "/ns/default/stats", ""},
		{http.MethodGet, "/ns", ""},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/version", ""},
		{http.MethodGet, "/metrics", ""},
	}
	for _, rt := range routes {
		for _, prefix := range []string{"/v1", ""} {
			var body io.Reader
			if rt.body != "" {
				body = strings.NewReader(rt.body)
			}
			req, err := http.NewRequest(rt.method, ts.URL+prefix+rt.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s%s: %v", rt.method, prefix, rt.path, err)
			}
			if prefix == "" {
				if resp.StatusCode != http.StatusNotFound {
					resp.Body.Close()
					t.Errorf("%s %s: unversioned path = %d, want 404", rt.method, rt.path, resp.StatusCode)
					continue
				}
				if env := decodeEnvelope(t, rt.method+" "+rt.path, resp); env.Code != server.CodeNotFound {
					t.Errorf("%s %s: unversioned path code = %q, want %q", rt.method, rt.path, env.Code, server.CodeNotFound)
				}
				continue
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s /v1%s = %d, want 200\n%s", rt.method, rt.path, resp.StatusCode, raw)
			}
			if dep, link := resp.Header.Get("Deprecation"), resp.Header.Get("Link"); dep != "" || link != "" {
				t.Errorf("%s /v1%s: versioned route marked deprecated (Deprecation=%q Link=%q)", rt.method, rt.path, dep, link)
			}
		}
	}
}

// decodeEnvelope reads a non-2xx body and fails unless it parses as the
// uniform envelope with a non-empty message.
func decodeEnvelope(t *testing.T, label string, resp *http.Response) server.ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading error body: %v", label, err)
	}
	var env server.ErrorResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s: non-2xx body is not the error envelope: %v\n%s", label, err, raw)
	}
	if env.Error == "" {
		t.Fatalf("%s: envelope has an empty error message: %s", label, raw)
	}
	return env
}

// TestErrorEnvelopeOnEveryPath drives each distinct failure class through
// the HTTP stack and pins status, machine code, and a usable trace_id.
func TestErrorEnvelopeOnEveryPath(t *testing.T) {
	eng := newEngine(t, 8, 6, 3, 2)
	_, ts, _ := newTestServer(t, eng, server.Config{})

	cases := []struct {
		name, method, path, body, token string
		wantStatus                      int
		wantCode                        string
	}{
		{"unknown route", http.MethodGet, "/v1/no/such/route", "", "",
			http.StatusNotFound, server.CodeNotFound},
		{"unknown unversioned route", http.MethodGet, "/no/such/route", "", "",
			http.StatusNotFound, server.CodeNotFound},
		{"malformed query body", http.MethodPost, "/v1/query", "{not json", "",
			http.StatusBadRequest, server.CodeBadRequest},
		{"empty pattern", http.MethodPost, "/v1/query", "{}", "",
			http.StatusBadRequest, server.CodeBadRequest},
		{"unknown namespace", http.MethodPost, "/v1/ns/ghost/query", `{"pattern":"(a:L0)-(b:L1)"}`, "",
			http.StatusNotFound, server.CodeNotFound},
		{"admin create without token", http.MethodPost, "/v1/ns", `{"name":"x","spec":"rmat:scale=4,degree=2,labels=2,seed=7,machines=1"}`, "",
			http.StatusUnauthorized, server.CodeUnauthorized},
		{"promote without token", http.MethodPost, "/v1/admin/promote", "{}", "",
			http.StatusUnauthorized, server.CodeUnauthorized},
		{"promote on a non-follower", http.MethodPost, "/v1/admin/promote", "{}", testAdminToken,
			http.StatusConflict, server.CodeNotFollower},
		{"wal tail without a journal", http.MethodGet, "/v1/ns/default/wal?from=0", "", "",
			http.StatusConflict, server.CodeNotPersisted},
		{"snapshot without a journal", http.MethodGet, "/v1/ns/default/snapshot", "", "",
			http.StatusConflict, server.CodeNotPersisted},
		{"bad wal cursor", http.MethodGet, "/v1/ns/default/wal?from=banana", "", "",
			http.StatusBadRequest, server.CodeBadRequest},
	}
	for _, tc := range cases {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		if tc.token != "" {
			req.Header.Set("Authorization", "Bearer "+tc.token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.wantStatus {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Errorf("%s: status = %d, want %d\n%s", tc.name, resp.StatusCode, tc.wantStatus, raw)
			continue
		}
		env := decodeEnvelope(t, tc.name, resp)
		if env.Code != tc.wantCode {
			t.Errorf("%s: code = %q, want %q (error: %s)", tc.name, env.Code, tc.wantCode, env.Error)
		}
		if env.TraceID == "" {
			t.Errorf("%s: envelope has no trace_id", tc.name)
		}
		if env.TraceID != resp.Header.Get(server.TraceHeader) {
			t.Errorf("%s: trace_id %q disagrees with the %s header %q", tc.name, env.TraceID, server.TraceHeader, resp.Header.Get(server.TraceHeader))
		}
	}
}
