package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"stwig/internal/server"
)

// Admin groups the control-plane calls: namespace lifecycle, replica
// promotion, and the token-gated profiling endpoints. All of them resolve
// against the server origin (never a namespace scope) and send the bearer
// token configured with WithToken.
type Admin struct {
	c *Client
}

// Admin returns the control-plane view of this client. The same
// underlying HTTP client, token, and logger are used, so Admin can be
// derived from a namespace-scoped client too.
func (c *Client) Admin() *Admin { return &Admin{c: c} }

// CreateNamespace asks the server to materialize a new tenant from spec
// (see server.NamespaceSpec for the grammar) and returns its summary.
func (a *Admin) CreateNamespace(ctx context.Context, req server.CreateNamespaceRequest) (*server.NamespaceInfo, error) {
	resp, err := a.c.postJSON(ctx, a.c.origin+"/v1/ns", req, a.c.authorize, withTrace(traceFor(ctx)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, statusError(resp)
	}
	var out server.NamespaceInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DropNamespace removes a tenant; its in-flight requests finish, new ones
// 404.
func (a *Admin) DropNamespace(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, a.c.origin+"/v1/ns/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	a.c.authorize(req)
	withTrace(traceFor(ctx))(req)
	resp, err := a.c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// ListNamespaces returns every tenant's summary, sorted by name.
func (a *Admin) ListNamespaces(ctx context.Context) ([]server.NamespaceInfo, error) {
	var out server.NamespaceListResponse
	if err := a.c.getJSON(ctx, a.c.origin+"/v1/ns", &out); err != nil {
		return nil, err
	}
	return out.Namespaces, nil
}

// Promote turns a read-only follower into a leader: replication stops,
// every journal tail is sealed and fsynced, and the server starts
// accepting writes. Idempotent — re-promoting reports the same success.
// A server that follows no leader answers 409 with code "not_a_follower".
func (a *Admin) Promote(ctx context.Context) (*server.PromoteResponse, error) {
	resp, err := a.c.postJSON(ctx, a.c.origin+"/v1/admin/promote", struct{}{}, a.c.authorize, withTrace(traceFor(ctx)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out server.PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Profile opens one of the token-gated pprof endpoints ("profile", "heap",
// "goroutine", ...); the caller owns the returned stream. query carries
// endpoint parameters like "seconds=5" and may be empty.
func (a *Admin) Profile(ctx context.Context, name, query string) (io.ReadCloser, error) {
	u := a.c.origin + "/debug/pprof/" + url.PathEscape(name)
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	a.c.authorize(req)
	withTrace(traceFor(ctx))(req)
	resp, err := a.c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := statusError(resp)
		return nil, fmt.Errorf("pprof %s: %w", name, msg)
	}
	return resp.Body, nil
}
