package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	qcfe "repro"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/tenant"
)

// The traced run rebuilds a workload's stack in this process from the
// same artifacts, with the daemons' handlers mounted on httptest
// servers, and records a span at each boundary from outside the
// program: the client round trip, every handler, the router's replica
// round trip, and the library estimator behind serve. A layer's self
// time is its span minus its child's.

// span is one timed interval. id is the request's trace ID where the
// boundary sees it; key is the SQL text for the estimator's spans.
type span struct {
	name, id, key string
	keys          []string
	hit           bool
	start, end    time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory while on; a nil recorder records
// nothing.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byName returns the recorded spans with the given name.
func (r *recorder) byName(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

type traceIDKey struct{}

// withTraceID hands the request's trace ID to the estimator wrapper
// below the handler through the context.
func withTraceID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceIDKey{}, id)))
	})
}

// tracingTransport records the router's replica round trips, up to the
// moment the router has read and closed the reply.
type tracingTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{name: "router.replica_rt", id: req.Header.Get(obs.TraceHeader), start: time.Now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = time.Now()
		b.rec.add(b.s)
	})
	return err
}

// tracedEstimator is the library estimator behind serve, with its
// warm probe and its batch call timed.
type tracedEstimator struct {
	*qcfe.CostEstimator
	rec *recorder
}

func (e *tracedEstimator) CachedEstimate(env *qcfe.Environment, sql string) (float64, bool) {
	t0 := time.Now()
	ms, ok := e.CostEstimator.CachedEstimate(env, sql)
	e.rec.add(span{name: "qcache.probe", key: sql, hit: ok, start: t0, end: time.Now()})
	return ms, ok
}

func (e *tracedEstimator) EstimateSQLBatchCtx(ctx context.Context, env *qcfe.Environment, sqls []string) ([]float64, error) {
	t0 := time.Now()
	ms, err := e.CostEstimator.EstimateSQLBatchCtx(ctx, env, sqls)
	id, _ := ctx.Value(traceIDKey{}).(string)
	if e.rec.on.Load() {
		e.rec.add(span{name: "estimator.batch", id: id, keys: append([]string(nil), sqls...), start: t0, end: time.Now()})
	}
	return ms, err
}

// inProcess runs the untraced and the traced half of the in-process
// replay and reports the tracing overhead between them.
func inProcess(ctx context.Context, c config, r *result, rec *recorder, h *httpLoad, warm []*call, next func(traced bool) func(int) (*call, bool)) error {
	if err := sendAll(ctx, h, warm); err != nil {
		return err
	}
	base := closedLoop(ctx, clientCount(), c.window()/6, next(false), h.do)
	base.report("in-process untraced")
	rec.on.Store(true)
	h.traced = func(cl *call, id string, t0, t1 time.Time) {
		rec.add(span{name: "client.rt", id: id, key: cl.sqls[0], hit: cl.hot, start: t0, end: t1})
	}
	traced := closedLoop(ctx, clientCount(), c.window()/6, next(true), h.do)
	rec.on.Store(false)
	h.traced = nil
	traced.report("in-process traced")
	r.addLoop(base)
	r.addLoop(traced)
	setOverhead(r, base, traced)
	return nil
}

// setOverhead reports traced minus untraced end-to-end figures.
func setOverhead(r *result, base, traced *loopStats) {
	r.set("trace.overhead_p50_us", (median(traced.lat)-median(base.lat))*1000)
	r.set("trace.overhead_qps_pct", (base.qps()-traced.qps())/base.qps()*100)
}

// daemonWindow runs a shorter copy of the untraced measurement against
// the real daemons, for the /stats-derived ratios and the generator's
// CPU share.
func daemonWindow(ctx context.Context, c config, r *result, start func() (*stack, error), warm func() []*call, next func(int) (*call, bool), hot bool) error {
	b, err := measureBoot(ctx, start, warm, next, c.window()/2)
	if err != nil {
		return err
	}
	b.ls.report(c.workload + " daemons")
	r.addLoop(b.ls)
	hotRequests := int64(0)
	if hot {
		hotRequests = b.ls.hot
	}
	return layerCounters(r, c.workload, b.d, b.ls, hotRequests)
}

func traceSkewed(ctx context.Context, c config, alpha, beta *model, in *skewedInput) (*result, error) {
	r := newResult()
	start := func() (*stack, error) { return bootSkewed(ctx, c, alpha, beta) }
	if err := daemonWindow(ctx, c, r, start, in.warmCalls, in.source(c.seed, clientCount(), false), true); err != nil {
		return nil, err
	}
	in.reset()

	rec := &recorder{}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var cfgs []tenant.Config
	var ests []*qcfe.CostEstimator
	for _, m := range []*model{alpha, beta} {
		est, err := m.load()
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, tenant.Config{Name: m.name, Est: est})
		ests = append(ests, est)
	}
	reg, err := tenant.New(tenant.Options{Cache: &qcfe.CacheOptions{}}, cfgs)
	if err != nil {
		return nil, err
	}
	for i, m := range []*model{alpha, beta} {
		t, err := reg.Tenant(m.name)
		if err != nil {
			return nil, err
		}
		t.Server().SwapEstimator(&tracedEstimator{ests[i], rec})
	}
	go reg.Run(runCtx)
	front := httptest.NewServer(reg.Handler())
	defer front.Close()
	h := newHTTPLoad(front.URL, clientCount())
	defer h.close()
	if err := inProcess(ctx, c, r, rec, h, in.warmCalls(), func(traced bool) func(int) (*call, bool) {
		if traced {
			return in.source(c.seed+1, clientCount(), false)
		}
		return in.source(c.seed, clientCount(), false)
	}); err != nil {
		return nil, err
	}

	// A miss's coalescer wait: from the end of its last warm probe to the
	// start of the estimator batch call that priced it.
	lastProbe := map[string]span{}
	for _, s := range rec.byName("qcache.probe") {
		if !s.hit {
			lastProbe[s.key] = s
		}
	}
	var waits []float64
	for _, b := range rec.byName("estimator.batch") {
		for _, k := range b.keys {
			if p, ok := lastProbe[k]; ok && !p.end.After(b.start) {
				waits = append(waits, float64(b.start.Sub(p.end).Nanoseconds())/1e3)
			}
		}
	}
	r.set("serve.queue_wait_us", median(waits))

	// The warm probe alone: CachedEstimate over each tenant's hot set,
	// back to back on the tenant's warm estimator.
	var probes []float64
	for i, t := range in.tenants {
		for round := 0; round < 20; round++ {
			t0 := time.Now()
			for _, cl := range t.hot {
				ests[i].CachedEstimate(t.m.envs[cl.env], cl.sqls[0])
			}
			probes = append(probes, float64(time.Since(t0).Nanoseconds())/float64(len(t.hot)))
		}
	}
	r.set("qcache.probe_ns", median(probes))

	// Edge and self time on warm texts: the same hot-only traffic over
	// HTTP, straight into Registry.Estimate, and straight into an
	// identically configured single-tenant serve.Server.Estimate.
	short := max(c.window()/10, time.Second)
	hotHTTP := closedLoop(ctx, clientCount(), short, in.source(c.seed+2, clientCount(), true), h.do)
	hotReg := closedLoop(ctx, clientCount(), short, in.source(c.seed+2, clientCount(), true), func(_ int, cl *call) error {
		ms, degraded, err := reg.Estimate(ctx, cl.tenant, cl.env, cl.sqls[0])
		return checkOne(cl, ms, degraded, err)
	})
	servers := map[string]*serve.Server{}
	for _, m := range []*model{alpha, beta} {
		est, err := m.load()
		if err != nil {
			return nil, err
		}
		est.AttachCache(qcfe.NewQueryCache(qcfe.CacheOptions{}))
		srv := serve.New(est, serve.Options{})
		go srv.Run(runCtx)
		servers[m.name] = srv
	}
	warmSrv := closedLoop(ctx, clientCount(), time.Hour, listSource(in.warmCalls()), func(_ int, cl *call) error {
		ms, err := servers[cl.tenant].Estimate(ctx, cl.env, cl.sqls[0])
		return checkOne(cl, ms, false, err)
	})
	hotSrv := closedLoop(ctx, clientCount(), short, in.source(c.seed+2, clientCount(), true), func(_ int, cl *call) error {
		ms, err := servers[cl.tenant].Estimate(ctx, cl.env, cl.sqls[0])
		return checkOne(cl, ms, false, err)
	})
	for _, ls := range []*loopStats{hotHTTP, hotReg, warmSrv, hotSrv} {
		r.addLoop(ls)
		for _, e := range ls.errs {
			info("ledger failure: %s", e)
		}
	}
	r.set("tenant.edge_us", (median(hotHTTP.lat)-median(hotReg.lat))*1000)
	r.set("tenant.self_ns", (median(hotReg.lat)-median(hotSrv.lat))*1e6)

	batch := max(1, int(r.Metrics["serve.batch_size"].Value+0.5))
	var reps []*replaySet
	for _, t := range in.tenants {
		qs := make([]query, 0, 256)
		for _, cl := range t.fresh[len(t.fresh)-256:] {
			qs = append(qs, query{env: cl.env, sql: cl.sqls[0], want: cl.want[0]})
		}
		reps = append(reps, &replaySet{model: t.m.kind, bench: t.m.bench, m: t.m, queries: qs, warm: t.hot})
	}
	if err := missPathLedger(ctx, r, reps, batch); err != nil {
		return nil, err
	}
	for _, name := range []string{"router.self_us", "router.route_hash_ns", "serve.edge_us",
		"datagen.s", "engine.label_ms_per_query", "snapshot.build_s", "featred.reduce_s", "featred.kept_ratio",
		"mscn.train_s", "qppnet.train_s"} {
		r.set(name, 0) // not exercised by this workload
	}
	return r, nil
}

func traceRouted(ctx context.Context, c config, beta *model, in *routedInput) (*result, error) {
	r := newResult()
	start := func() (*stack, error) { return bootRouted(ctx, c, beta) }
	if err := daemonWindow(ctx, c, r, start, in.warmCalls, in.take, false); err != nil {
		return nil, err
	}
	in.reset()

	rec := &recorder{}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	est, err := beta.load()
	if err != nil {
		return nil, err
	}
	est.AttachCache(qcfe.NewQueryCache(qcfe.CacheOptions{}))
	srv := serve.New(&tracedEstimator{est, rec}, serve.Options{})
	go srv.Run(runCtx)
	rep := httptest.NewServer(withTraceID(srv.Handler()))
	defer rep.Close()
	rt, err := router.New([]string{rep.URL}, router.Options{
		Client: &http.Client{Transport: &tracingTransport{rec: rec, base: http.DefaultTransport}},
	})
	if err != nil {
		return nil, err
	}
	go rt.Run(runCtx)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	h := newHTTPLoad(front.URL, clientCount())
	defer h.close()
	if err := inProcess(ctx, c, r, rec, h, in.warmCalls(), func(bool) func(int) (*call, bool) { return in.take }); err != nil {
		return nil, err
	}

	// router self = client round trip − replica round trip; serve edge =
	// replica round trip − the estimator batch call, per trace ID.
	client := map[string]span{}
	for _, s := range rec.byName("client.rt") {
		client[s.id] = s
	}
	batches := map[string]span{}
	for _, s := range rec.byName("estimator.batch") {
		batches[s.id] = s
	}
	var routerSelf, serveEdge []float64
	for _, s := range rec.byName("router.replica_rt") {
		if cs, ok := client[s.id]; ok {
			routerSelf = append(routerSelf, float64((cs.dur()-s.dur()).Nanoseconds())/1e3)
		}
		if b, ok := batches[s.id]; ok {
			serveEdge = append(serveEdge, float64((s.dur()-b.dur()).Nanoseconds())/1e3)
		}
	}
	if len(routerSelf) == 0 || len(serveEdge) == 0 {
		return nil, fmt.Errorf("traced run linked no router or replica spans")
	}
	r.set("router.self_us", median(routerSelf))
	r.set("serve.edge_us", median(serveEdge))

	// Per-query routing hash over the texts sent.
	var hashNs []float64
	for _, b := range in.batches[:min(len(in.batches), 512)] {
		t0 := time.Now()
		for _, sql := range b.sqls {
			sqlparse.RoutingHash(sql)
		}
		hashNs = append(hashNs, float64(time.Since(t0).Nanoseconds())/float64(len(b.sqls)))
	}
	r.set("router.route_hash_ns", median(hashNs))

	var qs []query
	for _, b := range in.batches[len(in.batches)-32:] {
		for i, sql := range b.sqls {
			qs = append(qs, query{env: b.env, sql: sql, want: b.want[i]})
		}
	}
	var warm []*call
	for _, b := range in.batches[:routedWarmBatches] {
		warm = append(warm, b)
	}
	if err := missPathLedger(ctx, r, []*replaySet{{model: beta.kind, bench: beta.bench, m: beta, queries: qs, warm: warm}}, routedBatch); err != nil {
		return nil, err
	}
	for _, name := range []string{"tenant.edge_us", "tenant.self_ns", "serve.queue_wait_us", "qcache.probe_ns",
		"mscn.predict_us", "datagen.s", "engine.label_ms_per_query", "snapshot.build_s", "featred.reduce_s",
		"featred.kept_ratio", "mscn.train_s", "qppnet.train_s"} {
		r.set(name, 0) // not exercised by this workload
	}
	return r, nil
}

// listSource hands out each call once, then reports the pool used up.
func listSource(calls []*call) func(int) (*call, bool) {
	var next atomic.Int64
	return func(int) (*call, bool) {
		i := next.Add(1) - 1
		if i >= int64(len(calls)) {
			return nil, false
		}
		return calls[i], true
	}
}

func checkOne(cl *call, ms float64, degraded bool, err error) error {
	switch {
	case err != nil:
		return err
	case degraded:
		return fmt.Errorf("degraded answer for %q", cl.sqls[0])
	case !sameBits(ms, cl.want[0]):
		return fmt.Errorf("%q: got %v, library says %v", cl.sqls[0], ms, cl.want[0])
	}
	return nil
}

// replaySet is one model's texts for the miss-path replay.
type replaySet struct {
	model   string // mscn or qppnet
	bench   *qcfe.Benchmark
	m       *model              // serving artifact, or nil with est set
	est     *qcfe.CostEstimator // a fitted model, when m is nil
	queries []query
	warm    []*call // texts that fill the template tier, as in the workload
}

func (s *replaySet) load() (*qcfe.CostEstimator, error) {
	if s.m != nil {
		return s.m.load()
	}
	// A Save→Load copy, so attaching caches leaves the fitted model alone.
	var buf bytes.Buffer
	if err := s.est.Save(&buf); err != nil {
		return nil, err
	}
	return qcfe.LoadEstimator(&buf)
}

// missPathLedger replays the layer functions the library runs fused,
// one query batch at a time on one worker: sqlparse.Fingerprint,
// Benchmark.Plan, FeaturizeSQLBatchCtx (on a cold cache, so it parses
// and plans in full) and PredictFeaturized. It also times the same
// batches through EstimateSQLBatch with a warm-template cache and
// without one.
func missPathLedger(ctx context.Context, r *result, sets []*replaySet, batch int) error {
	qcfe.SetWorkers(1)
	defer qcfe.SetWorkers(0)
	var fp, plan, feat, store []float64
	pred := map[string][]float64{}
	for _, s := range sets {
		cold, err := s.load()
		if err != nil {
			return err
		}
		on, err := s.load()
		if err != nil {
			return err
		}
		off, err := s.load()
		if err != nil {
			return err
		}
		on.AttachCache(qcfe.NewQueryCache(qcfe.CacheOptions{}))
		envs := map[int]*qcfe.Environment{}
		for _, e := range cold.Environments() {
			envs[e.ID] = e
		}
		for _, w := range s.warm {
			if _, err := on.EstimateSQLBatch(envs[w.env], w.sqls); err != nil {
				return err
			}
		}
		for lo := 0; lo+batch <= len(s.queries); lo += batch {
			qs := s.queries[lo : lo+batch]
			env := envs[qs[0].env]
			sqls := make([]string, 0, batch)
			for _, q := range qs {
				if q.env != qs[0].env {
					break
				}
				sqls = append(sqls, q.sql)
			}
			n := float64(len(sqls))
			t0 := time.Now()
			for _, sql := range sqls {
				if _, _, err := sqlparse.Fingerprint(sql); err != nil {
					return err
				}
			}
			t1 := time.Now()
			for _, sql := range sqls {
				if _, err := s.bench.Plan(env, sql); err != nil {
					return err
				}
			}
			t2 := time.Now()
			cold.AttachCache(qcfe.NewQueryCache(qcfe.CacheOptions{Shards: 1, Capacity: 64}))
			t3 := time.Now()
			fb, err := cold.FeaturizeSQLBatchCtx(ctx, env, sqls)
			if err != nil {
				return err
			}
			t4 := time.Now()
			cold.PredictFeaturized(fb)
			t5 := time.Now()
			if _, err := on.EstimateSQLBatch(env, sqls); err != nil {
				return err
			}
			t6 := time.Now()
			if _, err := off.EstimateSQLBatch(env, sqls); err != nil {
				return err
			}
			t7 := time.Now()
			us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
			fp = append(fp, us(t1.Sub(t0)))
			plan = append(plan, us(t2.Sub(t1)))
			feat = append(feat, us(t4.Sub(t3)-t2.Sub(t0)))
			pred[s.model] = append(pred[s.model], us(t5.Sub(t4)))
			store = append(store, us(t6.Sub(t5)-t7.Sub(t6)))
		}
	}
	r.set("sqlparse.fingerprint_us", median(fp))
	r.set("planner.plan_us", median(plan))
	r.set("featurize.self_us", median(feat))
	r.set("qcache.store_us", median(store))
	for _, name := range []string{"mscn", "qppnet"} {
		if xs, ok := pred[name]; ok {
			r.set(name+".predict_us", median(xs))
		}
	}
	return nil
}
