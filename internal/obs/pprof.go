package obs

import (
	"net/http"
	"net/http/pprof"
)

// PprofHandler serves net/http/pprof under /debug/pprof/, gated by the
// same admin token that protects /swap and /rollout: 403 when the
// daemon has no token configured (profiling surface disabled — the
// safe default), 401 on a missing or wrong X-QCFE-Admin-Token. Mount
// it at /debug/pprof/ on a daemon's own mux; the global
// http.DefaultServeMux is never touched. Under NewServer a profile or
// trace must ask for fewer seconds than WriteTimeout (2 minutes).
func PprofHandler(adminToken string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if adminToken == "" {
			http.Error(w, `{"error":"pprof disabled (no admin token configured)"}`, http.StatusForbidden)
			return
		}
		if r.Header.Get("X-QCFE-Admin-Token") != adminToken {
			http.Error(w, `{"error":"missing or invalid admin token"}`, http.StatusUnauthorized)
			return
		}
		mux.ServeHTTP(w, r)
	})
}
