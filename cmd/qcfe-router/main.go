// Command qcfe-router is the scatter/gather front end for a fleet of
// qcfe-serve replicas. It consistent-hashes each query's normalized
// fingerprint onto a replica (so literal variants of one template
// always share that replica's cache tiers), splits batch requests into
// per-replica sub-batches priced concurrently, and merges the results
// back into request order — byte-for-byte the same answer a single
// replica (or the library's EstimateBatch) would give, for any fleet
// size.
//
// Usage:
//
//	qcfe-router -replicas http://host1:8080,http://host2:8080 -addr :8090
//
// Endpoints (data plane identical to a single replica's):
//
//	POST /estimate        {"env":0,"sql":"SELECT ..."}  → {"ms":1.23}
//	POST /estimate_batch  {"env":0,"sqls":["...",...]}  → {"ms":[...]}
//	GET  /healthz                                       → fleet health + uniform generation
//	GET  /stats                                         → merged fleet stats
//	POST /rollout         admin: canary-gated fleet artifact rollout
//	GET  /metrics                                       → Prometheus text exposition
//	GET  /trace/recent                                  → recent finished request traces
//	GET  /version                                       → build identification
//	GET  /debug/pprof/    admin: net/http/pprof profiles (seconds < 120)
//
// Replica faults (connection errors, 5xx, hangs past -timeout) trip a
// per-replica circuit breaker after -breaker-threshold consecutive
// failures; affected queries retry on their fingerprint's deterministic
// ring successor, and a background health loop probes tripped replicas
// back into rotation. Query faults (4xx: bad SQL, unknown environment)
// propagate to the caller untouched.
//
// POST /rollout (requires -admin-token, which must match the replicas'
// -admin-token) pushes a new artifact through the fleet one replica at
// a time: each replica stages the artifact, prices the canary probe set
// on the staged estimator, and only commits if the predictions match
// the fleet reference bit for bit; the first mismatch rolls every
// already-committed replica back, leaving the fleet on the old
// generation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
)

func main() {
	replicas := flag.String("replicas", "", "comma-separated replica base URLs, e.g. http://host1:8080,http://host2:8080 (required)")
	addr := flag.String("addr", ":8090", "HTTP listen address")
	vnodes := flag.Int("vnodes", 64, "virtual nodes per replica on the consistent-hash ring")
	timeout := flag.Duration("timeout", 5*time.Second, "per-replica round-trip deadline (data plane and health probes)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive replica faults that trip its circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "how long a tripped breaker diverts traffic before a half-open probe")
	maxAttempts := flag.Int("max-attempts", 0, "replicas one query may try, primary plus fallbacks (0 = fleet size)")
	retryBackoff := flag.Duration("retry-backoff", 10*time.Millisecond, "pause before the first retry round, doubling per round")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "background /healthz poll period")
	adminToken := flag.String("admin-token", "", "enable POST /rollout, authenticated by this X-QCFE-Admin-Token value and presented to the replicas' /swap endpoints (empty = rollout disabled)")
	bakeTime := flag.Duration("rollout-bake", 0, "pause after each replica's rollout commit before proceeding to the next")
	slowQuery := flag.Duration("slow-query-threshold", 0, "log every routed request slower than this as one structured JSON line on stderr, with its trace ID and per-replica sub-batch spans (0 = off)")
	traceRing := flag.Int("trace-ring", 0, "finished-request traces retained for GET /trace/recent (0 = 256)")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *showVersion {
		printVersion("qcfe-router")
		return
	}
	urls := splitReplicas(*replicas)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "qcfe-router: -replicas is required")
		flag.Usage()
		os.Exit(2)
	}
	rt, err := router.New(urls, router.Options{
		Vnodes:             *vnodes,
		Timeout:            *timeout,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		MaxAttempts:        *maxAttempts,
		RetryBackoff:       *retryBackoff,
		HealthInterval:     *healthInterval,
		AdminToken:         *adminToken,
		RolloutBakeTime:    *bakeTime,
		SlowQueryThreshold: *slowQuery,
		TraceRing:          *traceRing,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcfe-router: %v\n", err)
		os.Exit(1)
	}
	if err := run(rt, urls, *addr, *adminToken != ""); err != nil {
		fmt.Fprintf(os.Stderr, "qcfe-router: %v\n", err)
		os.Exit(1)
	}
}

// printVersion reports the binary's build identity — the same fields
// GET /version serves.
func printVersion(name string) {
	b := obs.Build()
	fmt.Printf("%s %s (%s", name, orDev(b.Version), b.GoVersion)
	if b.VCSRevision != "" {
		rev := b.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Printf(", rev %s", rev)
		if b.VCSModified {
			fmt.Print("+dirty")
		}
	}
	fmt.Println(")")
}

func orDev(v string) string {
	if v == "" || v == "(devel)" {
		return "devel"
	}
	return v
}

func splitReplicas(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

func run(rt *router.Router, urls []string, addr string, rollout bool) error {
	fmt.Printf("qcfe-router: fronting %d replicas: %s\n", len(urls), strings.Join(urls, ", "))
	if rollout {
		fmt.Println("qcfe-router: rollout enabled (POST /rollout; authenticate with X-QCFE-Admin-Token)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)

	httpSrv := obs.NewServer(ctx, addr, rt.Handler())
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("qcfe-router: listening on %s\n", addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Println("qcfe-router: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
