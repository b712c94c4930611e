package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/tenant"
)

const (
	// skewed-tenant: per tenant, a hot set drawn Zipf(1.1) plus a share
	// of texts never sent before.
	hotSetSize = 1000
	freshShare = 0.10
	zipfS      = 1.1
	// freshPerTenant bounds the never-sent texts one run may use.
	freshPerTenant = 6000
	// cold-routed: batches of never-sent texts.
	routedBatch       = 16
	routedPoolBatches = 5000
	// The warm-up fills the template tier and then every tier past its
	// default capacity (4096 entries), so the window measures the steady
	// state in which each query stores and evicts.
	routedWarmBatches = 512
	// bootSamples is how many times a serving run boots its stack: each
	// boot measures set-up and then its share of the window, and the run
	// reports the median over boots.
	bootSamples = 3
)

// clientCount is the closed loop's caller count: one per core, each
// an optimizer blocked on its estimate.
func clientCount() int { return runtime.NumCPU() }

// tenantInput is one tenant's generated traffic.
type tenantInput struct {
	m         *model
	hot       []*call
	fresh     []*call
	freshNext atomic.Int64
}

// skewedInput is the skewed-tenant traffic: alpha and beta alternate.
type skewedInput struct{ tenants []*tenantInput }

func singleCall(m *model, q query, hot bool) *call {
	return &call{
		path:   "/estimate",
		tenant: m.name,
		body:   mustJSON(serve.EstimateRequest{Env: q.env, SQL: q.sql}),
		env:    q.env,
		sqls:   []string{q.sql},
		want:   []float64{q.want},
		hot:    hot,
	}
}

// prepSkewed generates each tenant's hot set and never-sent pool from
// the workload seed and computes every expected answer.
func prepSkewed(c config, models ...*model) (*skewedInput, error) {
	in := &skewedInput{}
	for i, m := range models {
		rng := rand.New(rand.NewSource(c.seed*101 + int64(i)))
		stream := newTextStream(m.bench, c.seed*101+int64(i))
		hot, err := stream.take(hotSetSize, m.envIDs, rng)
		if err != nil {
			return nil, err
		}
		fresh, err := stream.take(freshPerTenant, m.envIDs, rng)
		if err != nil {
			return nil, err
		}
		if err := m.expect(hot); err != nil {
			return nil, err
		}
		if err := m.expect(fresh); err != nil {
			return nil, err
		}
		t := &tenantInput{m: m}
		for _, q := range hot {
			t.hot = append(t.hot, singleCall(m, q, true))
		}
		for _, q := range fresh {
			t.fresh = append(t.fresh, singleCall(m, q, false))
		}
		in.tenants = append(in.tenants, t)
	}
	return in, nil
}

// reset makes every never-sent text available again, for a stack
// booted with empty caches.
func (in *skewedInput) reset() {
	for _, t := range in.tenants {
		t.freshNext.Store(0)
	}
}

// warmCalls is every hot text of every tenant once.
func (in *skewedInput) warmCalls() []*call {
	var calls []*call
	for _, t := range in.tenants {
		calls = append(calls, t.hot...)
	}
	return calls
}

// source draws each client's next request: tenants alternate; 90% are
// Zipf draws from the tenant's hot set, 10% the next never-sent text.
// With hotOnly every draw is hot.
func (in *skewedInput) source(seed int64, clients int, hotOnly bool) func(int) (*call, bool) {
	type state struct {
		rng  *rand.Rand
		zipf []*rand.Zipf
		n    int
	}
	states := make([]*state, clients)
	for cl := range states {
		rng := rand.New(rand.NewSource(seed*7919 + int64(cl)))
		st := &state{rng: rng}
		for _, t := range in.tenants {
			st.zipf = append(st.zipf, rand.NewZipf(rng, zipfS, 1, uint64(len(t.hot)-1)))
		}
		states[cl] = st
	}
	return func(cl int) (*call, bool) {
		st := states[cl]
		k := st.n % len(in.tenants)
		t := in.tenants[k]
		st.n++
		if !hotOnly && st.rng.Float64() < freshShare {
			i := t.freshNext.Add(1) - 1
			if i >= int64(len(t.fresh)) {
				return nil, false
			}
			return t.fresh[i], true
		}
		return t.hot[st.zipf[k].Uint64()], true
	}
}

// routedInput is the cold-routed traffic: batches of never-sent texts.
type routedInput struct {
	batches []*call
	next    atomic.Int64
}

func prepRouted(c config, m *model) (*routedInput, error) {
	rng := rand.New(rand.NewSource(c.seed*131 + 7))
	qs, err := newTextStream(m.bench, c.seed*131+7).take(routedPoolBatches*routedBatch, m.envIDs, rng)
	if err != nil {
		return nil, err
	}
	// One environment per batch: a batch request names one.
	for b := 0; b < routedPoolBatches; b++ {
		env := m.envIDs[rng.Intn(len(m.envIDs))]
		for i := b * routedBatch; i < (b+1)*routedBatch; i++ {
			qs[i].env = env
		}
	}
	if err := m.expect(qs); err != nil {
		return nil, err
	}
	in := &routedInput{}
	for b := 0; b < routedPoolBatches; b++ {
		part := qs[b*routedBatch : (b+1)*routedBatch]
		cl := &call{path: "/estimate_batch", env: part[0].env}
		for _, q := range part {
			cl.sqls = append(cl.sqls, q.sql)
			cl.want = append(cl.want, q.want)
		}
		cl.body = mustJSON(serve.BatchRequest{Env: cl.env, SQLs: cl.sqls})
		in.batches = append(in.batches, cl)
	}
	return in, nil
}

// reset makes every batch available again, for a stack booted with
// empty caches.
func (in *routedInput) reset() { in.next.Store(0) }

func (in *routedInput) take(int) (*call, bool) {
	i := in.next.Add(1) - 1
	if i >= int64(len(in.batches)) {
		return nil, false
	}
	return in.batches[i], true
}

// warmCalls takes the first batches off the pool.
func (in *routedInput) warmCalls() []*call {
	var calls []*call
	for i := 0; i < routedWarmBatches; i++ {
		cl, _ := in.take(0)
		calls = append(calls, cl)
	}
	return calls
}

// counters are the /stats figures the per-layer ratios derive from.
type counters struct {
	predHit, predMiss, featHit, featMiss, tplHit, tplMiss, evictions int64
	requests, cacheHits, flushes, batchQueries                       int64
	degraded, shed, fanouts                                          int64
}

func (a counters) sub(b counters) counters {
	return counters{
		a.predHit - b.predHit, a.predMiss - b.predMiss, a.featHit - b.featHit, a.featMiss - b.featMiss,
		a.tplHit - b.tplHit, a.tplMiss - b.tplMiss, a.evictions - b.evictions,
		a.requests - b.requests, a.cacheHits - b.cacheHits, a.flushes - b.flushes, a.batchQueries - b.batchQueries,
		a.degraded - b.degraded, a.shed - b.shed, a.fanouts - b.fanouts,
	}
}

func (a *counters) addServe(s serve.StatsResponse) {
	a.requests += s.Requests
	a.cacheHits += s.CacheHits
	a.flushes += s.Flushes
	a.batchQueries += s.BatchRequests
	if cs := s.Cache; cs != nil {
		a.predHit += cs.Prediction.Hits
		a.predMiss += cs.Prediction.Misses
		a.featHit += cs.Feature.Hits
		a.featMiss += cs.Feature.Misses
		a.tplHit += cs.Template.Hits
		a.tplMiss += cs.Template.Misses
		a.evictions += cs.Prediction.Evictions + cs.Feature.Evictions + cs.Template.Evictions
	}
}

// scrapeTenant reads a multi-tenant daemon's /stats.
func scrapeTenant(base string) (counters, error) {
	var st tenant.StatsResponse
	var c counters
	if err := getJSON(base+"/stats", &st); err != nil {
		return c, err
	}
	for _, t := range st.Tenants {
		c.addServe(t.Serve)
		c.degraded += t.Degraded
		c.shed += t.Shed
	}
	return c, nil
}

// scrapeRouted reads the replica's and the router's /stats.
func scrapeRouted(replica, front string) (counters, error) {
	var rs serve.StatsResponse
	var rt router.StatsResponse
	var c counters
	if err := getJSON(replica+"/stats", &rs); err != nil {
		return c, err
	}
	if err := getJSON(front+"/stats", &rt); err != nil {
		return c, err
	}
	c.addServe(rs)
	c.fanouts = rt.Fanouts
	return c, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerCounters derives the per-layer ratios from a window's /stats
// difference, prints them, and checks that never-sent texts stayed
// fresh: they can never be prediction-tier hits.
func layerCounters(r *result, workload string, d counters, ls *loopStats, hotRequests int64) error {
	batch := ratio(d.requests-d.cacheHits, d.flushes) // coalesced single requests
	predShare := ratio(d.cacheHits, d.requests)       // requests answered by the prediction tier
	hotShare := ratio(hotRequests, ls.attempted)
	if workload == "cold-routed" {
		batch = ratio(d.batchQueries, d.fanouts)
		predShare = ratio(d.predHit, ls.answers)
		hotShare = 0
	}
	info("%s counters: prediction-tier answered share %.4f (hot-set share of requests %.4f); tier hit ratios prediction %.4f feature %.4f template %.4f; evictions/query %.4f; batch size %.3f; degraded %d shed %d",
		workload, predShare, hotShare, ratio(d.predHit, d.predHit+d.predMiss), ratio(d.featHit, d.featHit+d.featMiss),
		ratio(d.tplHit, d.tplHit+d.tplMiss), ratio(d.evictions, ls.answers), batch, d.degraded, d.shed)
	if workload == "cold-routed" && (d.predHit != 0 || d.featHit != 0) {
		return fmt.Errorf("cold-routed texts were not fresh: %d prediction and %d feature hits", d.predHit, d.featHit)
	}
	if workload == "skewed-tenant" && d.cacheHits > hotRequests {
		return fmt.Errorf("skewed-tenant: %d prediction-tier answers for %d hot requests: never-sent texts hit", d.cacheHits, hotRequests)
	}
	if r != nil {
		r.set("qcache.pred_hit_ratio", ratio(d.predHit, d.predHit+d.predMiss))
		r.set("qcache.feature_hit_ratio", ratio(d.featHit, d.featHit+d.featMiss))
		r.set("qcache.template_hit_ratio", ratio(d.tplHit, d.tplHit+d.tplMiss))
		r.set("qcache.evictions_per_query", ratio(d.evictions, ls.answers))
		r.set("serve.batch_size", batch)
		r.set("tenant.degraded_ratio", ratio(d.degraded, ls.attempted))
		r.set("tenant.shed_ratio", ratio(d.shed, ls.attempted))
		r.set("loadgen.cpu_share", ls.cpuShare())
	}
	return nil
}

// stack is a booted serving workload ready for traffic.
type stack struct {
	daemons []*daemon
	front   string
	scrape  func() (counters, error)
	setupS  float64 // from the first launch until every /healthz answered 200
}

func bootSkewed(ctx context.Context, c config, alpha, beta *model) (*stack, error) {
	t0 := startClock()
	d, err := startHealthy(ctx, c, "qcfe-serve", "-tenants", fmt.Sprintf("alpha=%s,beta=%s", alpha.path, beta.path))
	if err != nil {
		return nil, err
	}
	return &stack{[]*daemon{d}, d.url, func() (counters, error) { return scrapeTenant(d.url) }, t0.seconds()}, nil
}

// bootRouted starts the replica, then the router in front of it: the
// router probes its replicas as it starts.
func bootRouted(ctx context.Context, c config, beta *model) (*stack, error) {
	t0 := startClock()
	rep, err := startHealthy(ctx, c, "qcfe-serve", "-artifact", beta.path)
	if err != nil {
		return nil, err
	}
	rt, err := startHealthy(ctx, c, "qcfe-router", "-replicas", rep.url)
	if err != nil {
		rep.stop()
		return nil, err
	}
	return &stack{[]*daemon{rep, rt}, rt.url, func() (counters, error) { return scrapeRouted(rep.url, rt.url) }, t0.seconds()}, nil
}

// boot is one measured boot of a stack: its set-up time, the timed
// window's loop, the window's /stats difference and the peak RSS.
type boot struct {
	setupS, rss float64
	ls          *loopStats
	d           counters
}

// measureBoot boots a stack, warms it, runs a timed window with /stats
// read on both sides, and stops it. A daemon that died fails the run.
func measureBoot(ctx context.Context, start func() (*stack, error), warm func() []*call, next func(int) (*call, bool), dur time.Duration) (*boot, error) {
	st, err := start()
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, d := range st.daemons {
			d.stop()
		}
	}()
	h := newHTTPLoad(st.front, clientCount())
	defer h.close()
	if err := sendAll(ctx, h, warm()); err != nil {
		return nil, err
	}
	before, err := st.scrape()
	if err != nil {
		return nil, err
	}
	ls := closedLoop(ctx, clientCount(), dur, next, h.do)
	if err := checkAlive(st.daemons); err != nil {
		ls.report("window")
		return nil, err
	}
	after, err := st.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(st.daemons)
	if err != nil {
		return nil, err
	}
	return &boot{setupS: st.setupS, rss: rss, ls: ls, d: after.sub(before)}, nil
}

// measureBoots runs bootSamples boots, each with its share of the
// window and fresh caches, so the same never-sent texts are fresh again
// in every boot. reset rewinds the input pools before each boot.
func measureBoots(ctx context.Context, c config, start func() (*stack, error), reset func(), warm func() []*call, next func(int) (*call, bool), hot bool) (*result, error) {
	r := newResult()
	var setup, rss []float64
	var windows []*loopStats
	for i := 0; i < bootSamples; i++ {
		reset()
		b, err := measureBoot(ctx, start, warm, next, c.window()/bootSamples)
		if err != nil {
			return nil, err
		}
		b.ls.report(fmt.Sprintf("%s boot %d", c.workload, i+1))
		hotRequests := int64(0)
		if hot {
			hotRequests = b.ls.hot
		}
		if err := layerCounters(nil, c.workload, b.d, b.ls, hotRequests); err != nil {
			return nil, err
		}
		info("loadgen cpu share %.3f; set-up %.3fs; peak RSS %.1f MB", b.ls.cpuShare(), b.setupS, b.rss)
		r.addLoop(b.ls)
		setup = append(setup, b.setupS)
		rss = append(rss, b.rss)
		windows = append(windows, b.ls)
	}
	r.set("setup_s", median(setup))
	r.set("peak_rss_mb", median(rss))
	setLatency(r, windows)
	return r, nil
}

// runSkewedTenant: single /estimate requests straight to qcfe-serve
// -tenants, alternating tenants alpha and beta.
func runSkewedTenant(ctx context.Context, c config) (*result, error) {
	alpha, beta, trainS, err := buildArtifacts(c)
	if err != nil {
		return nil, err
	}
	in, err := prepSkewed(c, alpha, beta)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceSkewed(ctx, c, alpha, beta, in)
	}
	r, err := measureBoots(ctx, c, func() (*stack, error) { return bootSkewed(ctx, c, alpha, beta) },
		in.reset, in.warmCalls, in.source(c.seed, clientCount(), false), true)
	if err != nil {
		return nil, err
	}
	trainMetrics(r, trainS, alpha, beta)
	return r, nil
}

// runColdRouted: /estimate_batch of 16 never-sent texts through
// qcfe-router to one qcfe-serve -artifact replica serving beta.
func runColdRouted(ctx context.Context, c config) (*result, error) {
	alpha, beta, trainS, err := buildArtifacts(c)
	if err != nil {
		return nil, err
	}
	in, err := prepRouted(c, beta)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceRouted(ctx, c, beta, in)
	}
	r, err := measureBoots(ctx, c, func() (*stack, error) { return bootRouted(ctx, c, beta) },
		in.reset, in.warmCalls, in.take, false)
	if err != nil {
		return nil, err
	}
	trainMetrics(r, trainS, alpha, beta)
	return r, nil
}

// trainMetrics reports, for a serving workload, the training figures
// of the fixed-seed artifacts its stack serves.
func trainMetrics(r *result, trainS float64, alpha, beta *model) {
	r.set("train_s", trainS)
	setQError(r, alpha.kind, alpha.qerr)
	setQError(r, beta.kind, beta.qerr)
}
