package server

import (
	"net/http"
	"net/http/pprof"
)

// registerDebug mounts net/http/pprof under /debug/pprof/, gated by the
// same bearer token as the namespace admin API: profiles expose memory
// contents and the CPU profiler costs real throughput, so the endpoints
// are disabled outright (403) without an AdminToken and require it (401
// otherwise) when one is configured. The handlers share the tenant
// listener deliberately — profiling must work on exactly the process that
// is slow, without a second port to misconfigure.
func (s *Server) registerDebug(mux *http.ServeMux) {
	gate := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if e := s.authorizeBearer(w, r, "live profiling over /debug/pprof"); e != nil {
				writeEnvelope(w, e)
				return
			}
			h(w, r)
		}
	}
	// pprof.Index serves the named profiles (heap, goroutine, block, ...)
	// under the prefix itself; the four fixed handlers are the ones Index
	// does not dispatch.
	mux.HandleFunc("/debug/pprof/", gate(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", gate(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", gate(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", gate(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", gate(pprof.Trace))
}
