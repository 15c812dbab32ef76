package server

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"stwig/internal/core"
)

// Server is the multi-tenant query service: a registry of named
// namespaces, each a fully isolated Cluster+Engine pair with its own
// admission gate, limits, writer lock, and counters. It implements
// http.Handler and is safe for concurrent use, including namespace
// creation and removal under live traffic.
//
// Every route lives under /v1; pipeline.go holds the route table and the
// package comment lists it.
type Server struct {
	cfg   Config // per-tenant defaults; each namespace may override limits
	reg   *registry
	met   *metrics // non-tenant routes: /healthz and the /ns admin API
	mux   *http.ServeMux
	start time.Time
	// store is the durability root (Config.DataDir): manifest plus
	// per-namespace journal/checkpoint directories. Nil without a data dir.
	store *dataStore
	// buildSem bounds concurrent POST /ns builds: graph generation and
	// loading are CPU- and memory-hungry, so unbounded concurrent creates
	// are a denial-of-service on every live tenant. Excess creates get 429.
	buildSem chan struct{}
	// repl is the WAL-shipping follower runtime (Config.FollowURL); nil on
	// a plain leader. While it is active and unpromoted every mutating
	// endpoint answers 403 read_only.
	repl *replicator
	// coord is the scatter-gather fan-out runtime (Config.ShardMap with a
	// negative ShardID); nil on shards and on non-clustered servers. A
	// coordinator hosts no namespaces: its tenant routes are served by
	// fanning out to the shard map instead of by the registry.
	coord *coordinator

	draining atomic.Bool
	// inflight holds every request context Abort must end, so a hard
	// shutdown tears down in-flight executors.
	inflight inflight
}

// New builds a service serving eng as the "default" namespace — the
// single-tenant constructor every existing caller uses. The engine (and
// its cluster) must already be loaded.
func New(eng *core.Engine, cfg Config) (*Server, error) {
	s, err := NewMulti(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.AddNamespace(DefaultNamespace, eng, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// NewMulti builds a service with an empty namespace registry; cfg supplies
// the per-tenant limit defaults. Register tenants with AddNamespace /
// AddNamespaceSpec (boot) or POST /ns (runtime).
//
// With Config.DataDir set, NewMulti first recovers: every namespace in the
// data dir's manifest is re-created (checkpoint load or spec rebuild) and
// its journal replayed before the server is returned, so by the time the
// listener opens every acknowledged pre-crash mutation is live again. A
// recovery failure fails construction — serving a silently incomplete
// tenant would be worse than not starting.
func NewMulti(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg.normalize(),
		reg:      newRegistry(),
		met:      newMetrics(),
		start:    time.Now(),
		buildSem: make(chan struct{}, 2),
		inflight: inflight{reqs: map[*request]struct{}{}},
	}
	if s.cfg.DataDir != "" {
		store, err := openDataStore(s.cfg.DataDir, s.cfg)
		if err != nil {
			return nil, err
		}
		s.store = store
		if err := s.recoverPersisted(); err != nil {
			s.Close()
			return nil, err
		}
	}
	if cfg.ShardMap != "" && cfg.ShardID < 0 {
		// Coordinator mode: the tenant surface is served by fan-out over
		// the shard map, not by the local registry.
		s.coord = newCoordinator(s)
	}
	s.mux = s.mount()
	if s.cfg.FollowURL != "" {
		s.repl = newReplicator(s, s.cfg.FollowURL)
		s.repl.start()
	}
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain moves the server into graceful shutdown: /healthz flips to 503
// (so load balancers stop routing here) and new queries, updates, and
// namespace mutations are refused, while in-flight streams keep running to
// completion. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Abort cancels every in-flight request's context, aborting their
// executors, and every later request's at once. It is the hard stop a
// daemon applies when the drain timeout expires. Idempotent.
func (s *Server) Abort() {
	s.inflight.mu.Lock()
	defer s.inflight.mu.Unlock()
	s.inflight.aborted = true
	for rq := range s.inflight.reqs {
		rq.cancel()
	}
}

// Close releases the server's background resources: every namespace's
// update dispatcher drains its in-flight batch and stops (still-queued
// updates fail with 503), then each journal is closed. The registry is
// sealed first, so a namespace create racing Close can no longer register
// a dispatcher nobody would stop. Call it after the HTTP listener has shut
// down (tests, daemon exit); in-flight query streams are not interrupted —
// use Abort for that. Idempotent.
func (s *Server) Close() {
	if s.repl != nil {
		// Stop tailing before namespaces close, so no replication apply
		// races a closing journal.
		s.repl.stop()
	}
	for _, ns := range s.reg.seal() {
		ns.close()
	}
	if s.coord != nil {
		s.coord.hc.CloseIdleConnections()
	}
	if s.store != nil {
		// Release the data-dir flock last, after every journal is closed,
		// so a successor process sees a quiescent directory.
		s.store.close()
	}
}

// recoverPersisted re-creates every namespace the manifest lists and
// removes orphaned directories (crashed drops). Called once from NewMulti.
func (s *Server) recoverPersisted() error {
	if err := s.store.cleanOrphans(); err != nil {
		return fmt.Errorf("server: cleaning orphaned namespace dirs: %w", err)
	}
	for _, name := range s.store.names() {
		specText, _ := s.store.specFor(name)
		spec, err := ParseNamespaceSpec(name, specText)
		if err != nil {
			return fmt.Errorf("server: manifest namespace %q: %w", name, err)
		}
		// A spec an earlier build recorded with a since-retired key is
		// stored again in today's canonical text, which is what a boot flag
		// restating it is compared with.
		if canon := spec.SpecString(); canon != specText {
			if err := s.store.record(name, canon); err != nil {
				return fmt.Errorf("server: manifest namespace %q: %w", name, err)
			}
		}
		eng, store, err := recoverEngine(spec, s.store.nsDir(name), s.cfg)
		if err != nil {
			return err
		}
		ns := newNamespace(name, eng, spec.configFor(s.cfg), store)
		if err := s.reg.add(ns, 0); err != nil {
			ns.close()
			return err
		}
	}
	return nil
}

// clusterInfo snapshots the process's cluster-mode state for /stats; nil
// outside cluster mode.
func (s *Server) clusterInfo() *ClusterInfo {
	if s.cfg.ShardMap == "" {
		return nil
	}
	if s.coord != nil {
		return s.coord.info()
	}
	urls := parseShardMap(s.cfg.ShardMap)
	ci := &ClusterInfo{Role: "shard", ShardID: s.cfg.ShardID, Shards: make([]ShardInfo, len(urls))}
	for i, u := range urls {
		ci.Shards[i] = ShardInfo{Shard: i, URL: u}
	}
	return ci
}

// authorizeBearer is the admin-token check behind namespace mutation,
// promotion, and /debug/pprof; what names the protected capability in the
// error body. With no AdminToken configured the capability is disabled
// outright (403), mirroring the NamespaceRoot opt-in for file sources, and
// with one configured the request must present it as a bearer token (401
// otherwise). The comparison is constant-time so the token cannot be
// recovered byte by byte from response timing.
func (s *Server) authorizeBearer(w http.ResponseWriter, r *http.Request, what string) *apiError {
	if s.cfg.AdminToken == "" {
		return errStatus(http.StatusForbidden,
			what+" is disabled (start stwigd with -admin-token or STWIGD_ADMIN_TOKEN)")
	}
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.AdminToken)) != 1 {
		w.Header().Set("WWW-Authenticate", `Bearer realm="stwigd admin"`)
		return errStatus(http.StatusUnauthorized, what+" requires the admin bearer token")
	}
	return nil
}

func (s *Server) handleListNamespaces(rq *request) *apiError {
	list := s.reg.list()
	resp := NamespaceListResponse{Namespaces: make([]NamespaceInfo, len(list))}
	for i, ns := range list {
		resp.Namespaces[i] = ns.info()
	}
	writeJSON(rq.w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleCreateNamespace(rq *request) *apiError {
	var req CreateNamespaceRequest
	if e := decodeBody(rq, s.cfg.MaxRequestBytes, &req); e != nil {
		return e
	}
	spec, err := ParseNamespaceSpec(req.Name, req.Spec)
	if err != nil {
		return errStatus(http.StatusBadRequest, err.Error())
	}
	atCapacity := func(err error) *apiError {
		return errRetry(http.StatusTooManyRequests, CodeCapacity, err.Error(), s.cfg.RetryAfter)
	}
	spec, err = s.checkRuntimeSpec(spec)
	if err != nil {
		if errors.Is(err, ErrNamespaceCapacity) {
			return atCapacity(err)
		}
		return errStatus(http.StatusBadRequest, err.Error())
	}
	select {
	case s.buildSem <- struct{}{}:
		defer func() { <-s.buildSem }()
	default:
		return errRetry(http.StatusTooManyRequests, CodeOverloaded,
			"overloaded: too many namespace builds in progress", s.cfg.RetryAfter)
	}
	if err := s.addNamespaceSpec(spec, maxRuntimeNamespaces); err != nil {
		// Past parsing and the runtime guardrails, rmat failures can only
		// be client-chosen parameters (400). A missing file is a client
		// typo inside the root (400); any other file/text failure is
		// server-side filesystem state under the operator's root (500).
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrNamespaceExists):
			status = http.StatusConflict
		case errors.Is(err, ErrNamespaceCapacity):
			return atCapacity(err)
		case spec.Source != "rmat" && !errors.Is(err, fs.ErrNotExist):
			status = http.StatusInternalServerError
		}
		return errStatus(status, err.Error())
	}
	// A concurrent DELETE may already have dropped it again; report the
	// create anyway.
	info := NamespaceInfo{Name: spec.Name}
	if ns, ok := s.reg.get(spec.Name); ok {
		info = ns.info()
	}
	writeJSON(rq.w, http.StatusCreated, info)
	return nil
}

func (s *Server) handleDropNamespace(rq *request) *apiError {
	name := rq.r.PathValue("ns")
	dropped, err := s.DropNamespace(name)
	if err != nil {
		// The durable intent could not be recorded; the namespace is still
		// live and serving — destroying it anyway would resurrect it on the
		// next boot.
		return errStatus(http.StatusInternalServerError, err.Error())
	}
	if !dropped {
		return errStatus(http.StatusNotFound, fmt.Sprintf("unknown namespace %q", name))
	}
	writeJSON(rq.w, http.StatusOK, DropNamespaceResponse{Dropped: name})
	return nil
}

func (s *Server) handleHealthz(rq *request) *apiError {
	status, httpStatus := "ok", http.StatusOK
	if s.draining.Load() {
		status, httpStatus = "draining", http.StatusServiceUnavailable
	}
	writeJSON(rq.w, httpStatus, HealthzResponse{Status: status, Build: BuildVersion()})
	return nil
}
