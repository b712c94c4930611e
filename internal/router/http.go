package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Handler returns the router's HTTP API — the same data-plane shapes a
// single replica serves, so clients (and the CI smoke diff) cannot tell
// a router from a replica by its bytes:
//
//	POST /estimate        {"env":0,"sql":"..."}        → {"ms":1.23}
//	POST /estimate_batch  {"env":0,"sqls":["...",...]} → {"ms":[...]}
//	GET  /healthz                                      → fleet health + uniform generation
//	GET  /stats                                        → merged fleet stats
//	POST /rollout         admin: canary-gated fleet artifact rollout
//
// /rollout requires the X-QCFE-Admin-Token header to match
// Options.AdminToken and is disabled (403) when no token is configured
// — mirroring the replica-side /swap surface it drives.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", rt.traced("estimate", func(w http.ResponseWriter, r *http.Request) {
		var req serve.EstimateRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		ms, err := rt.EstimateTenant(r.Context(), tenantOf(r, req.Tenant), req.Env, req.SQL)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, serve.EstimateResponse{Ms: ms})
	}))
	mux.HandleFunc("/estimate_batch", rt.traced("estimate_batch", func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		ms, err := rt.EstimateBatchTenant(r.Context(), tenantOf(r, req.Tenant), req.Env, req.SQLs)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if ms == nil {
			ms = []float64{}
		}
		writeJSON(w, http.StatusOK, serve.BatchResponse{Ms: ms})
	}))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		healthy := 0
		for _, rep := range rt.replicas {
			if rep.healthy.Load() {
				healthy++
			}
		}
		status := "ok"
		code := http.StatusOK
		if healthy == 0 {
			status = "degraded"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, HealthResponse{
			Status:     status,
			Replicas:   len(rt.replicas),
			Healthy:    healthy,
			Generation: rt.uniformGeneration(),
			UptimeS:    rt.Uptime().Seconds(),
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, rt.Stats(r.Context()))
	})
	mux.HandleFunc("/rollout", func(w http.ResponseWriter, r *http.Request) {
		if rt.opts.AdminToken == "" {
			writeError(w, http.StatusForbidden, fmt.Errorf("rollout disabled (no admin token configured)"))
			return
		}
		if r.Header.Get("X-QCFE-Admin-Token") != rt.opts.AdminToken {
			writeError(w, http.StatusUnauthorized, fmt.Errorf("missing or invalid admin token"))
			return
		}
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		// Artifacts ship in-band; match the replica /swap body cap
		// rather than the 1 MB data-plane cap.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 256<<20))
		dec.DisallowUnknownFields()
		var req RolloutRequest
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		// A rollout with bakes or many replicas outlives the server's
		// WriteTimeout, and a reply cut off after the fleet committed
		// would leave the operator unable to tell what happened. Move
		// this reply's write deadline past the longest the rollout can
		// take, plus the usual budget for the reply itself.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(rt.rolloutBudget() + obs.WriteTimeout))
		res, err := rt.Rollout(r.Context(), req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.Handle("/metrics", obs.MetricsHandler(func(g *obs.Gatherer) {
		rt.WriteMetrics(g)
		obs.WriteBuildMetrics(g)
	}))
	mux.HandleFunc("/trace/recent", func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		max := 50
		if v := r.URL.Query().Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad n: %q", v))
				return
			}
			max = n
		}
		recs := rt.tracer.Recent(max)
		if recs == nil {
			recs = []obs.TraceRecord{}
		}
		writeJSON(w, http.StatusOK, recs)
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, obs.Build())
	})
	mux.Handle("/debug/pprof/", obs.PprofHandler(rt.opts.AdminToken))
	return mux
}

// traced wraps a routed data-plane handler with request tracing: the
// router is typically the edge, so it usually mints the trace ID (an
// inbound one is honored), attaches the trace to the request context —
// scatter forwards the ID on every sub-batch, retries included — echoes
// it back, and finishes the trace into the router's /trace/recent ring
// and slow-query log.
func (rt *Router) traced(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		if id == "" {
			id = obs.NewTraceID()
		}
		tr := obs.NewTrace(id)
		w.Header().Set(obs.TraceHeader, id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(obs.ContextWithTrace(r.Context(), tr)))
		var err error
		if sw.code >= 400 {
			err = fmt.Errorf("http %d", sw.code)
		}
		rt.tracer.Finish(tr, op, r.Header.Get(serve.TenantHeader), err)
	}
}

// statusWriter captures the reply status for the finished trace.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// HealthResponse is the router's /healthz reply. Generation is set only
// while every replica's last-known generation agrees — it goes empty
// mid-rollout, which is itself the signal that the fleet is in
// transition.
type HealthResponse struct {
	Status     string  `json:"status"`
	Replicas   int     `json:"replicas"`
	Healthy    int     `json:"healthy"`
	Generation string  `json:"generation,omitempty"`
	UptimeS    float64 `json:"uptime_s"`
}

// tenantOf resolves a routed request's tenant: X-QCFE-Tenant header
// first, then the body's "tenant" field — the same precedence the
// multi-tenant registry applies downstream.
func tenantOf(r *http.Request, bodyTenant string) string {
	if name := r.Header.Get(serve.TenantHeader); name != "" {
		return name
	}
	return bodyTenant
}

// errorResponse mirrors the replica error framing ({"error":"..."}) so
// clients parse router and replica failures identically.
type errorResponse struct {
	Error string `json:"error"`
}

// statusFor maps a routed failure onto the replica status taxonomy: a
// propagated query fault keeps its original status; cancellation and
// replica exhaustion are 503 (retryable); anything else is the
// request's fault.
func statusFor(err error) int {
	var re *serve.ReplicaError
	if errors.As(err, &re) {
		return re.Status
	}
	if errors.Is(err, errExhausted) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
