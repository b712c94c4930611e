package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	qcfe "repro"
	"repro/internal/core"
	"repro/internal/encoding"
)

const (
	trainEnvs   = 4
	trainPerEnv = 300
	openSamples = 5
	// The answer phase takes half the window, in answerWindows parts;
	// the run reports the median part.
	answerWindows = 5
	// answerTexts is how many generated texts each fitted model answers,
	// in batches of answerBatchSize.
	answerTexts     = 1000
	answerBatchSize = 16
)

// timeOpenBenchmark measures qcfe.OpenBenchmark in a fresh process:
// datasets are memoized per process, so a repeat in this one is free.
func timeOpenBenchmark(c config, bench string) (float64, error) {
	out, err := exec.Command(c.self, "-open-benchmark", bench).Output()
	if err != nil {
		return 0, fmt.Errorf("time OpenBenchmark(%s): %w", bench, err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// fitted is one trained pipeline of the train workload.
type fitted struct {
	name string
	est  *qcfe.CostEstimator
	fitS float64
}

// answerInput is what the fitted models answer in the answer phase:
// batches of generated texts, one environment per batch, with the
// single-query EstimateSQL answers as the reference.
type answerInput struct{ batches []*answerBatch }

type answerBatch struct {
	est  *qcfe.CostEstimator
	env  *qcfe.Environment
	sqls []string
	want []float64
}

// runTrain: OpenBenchmark("tpch") → CollectWorkload (4 environments ×
// 300 queries) → Fit for QCFE(mscn) and QCFE(qppnet) → Evaluate on the
// 20% hold-out, then both models answer texts generated from the
// workload seed, in batches.
func runTrain(ctx context.Context, c config) (*result, error) {
	t0 := startClock()
	b, err := qcfe.OpenBenchmark("tpch", datasetSeed)
	if err != nil {
		return nil, err
	}
	opens := []float64{t0.seconds()}
	for len(opens) < openSamples {
		s, err := timeOpenBenchmark(c, "tpch")
		if err != nil {
			return nil, err
		}
		opens = append(opens, s)
	}
	setupS := median(opens)

	// The training pool is fixed, so training time and q-error measure
	// the code, not the draw; the workload seed picks the texts the
	// fitted models then answer.
	envs := qcfe.RandomEnvironments(trainEnvs, datasetSeed)
	t1 := startClock()
	pool, err := b.CollectWorkloadCtx(ctx, envs, trainPerEnv, datasetSeed)
	if err != nil {
		return nil, err
	}
	collectS := t1.seconds()
	train, test := pool.Split(0.8)
	var models []fitted
	for _, name := range []string{"mscn", "qppnet"} {
		t := startClock()
		est, err := qcfe.NewPipeline(name, qcfe.WithSeed(datasetSeed)).FitCtx(ctx, b, envs, train)
		if err != nil {
			return nil, fmt.Errorf("fit %s: %w", name, err)
		}
		models = append(models, fitted{name, est, t.seconds()})
	}
	trainS := collectS + models[0].fitS + models[1].fitS
	info("train: OpenBenchmark %.3fs (median of %d), labeled %d queries in %.2fs, fit mscn %.2fs qppnet %.2fs",
		setupS, len(opens), pool.Len(), collectS, models[0].fitS, models[1].fitS)

	r := newResult()
	sums := map[string]qcfe.Summary{}
	for _, m := range models {
		sums[m.name] = m.est.Evaluate(test)
	}
	in, qs, err := prepAnswers(c, b, models, envs)
	if err != nil {
		return nil, err
	}
	// Start the answer phase from a collected heap, not from whatever
	// training left for the collector.
	runtime.GC()
	if !c.trace {
		var windows []*loopStats
		for i := 0; i < answerWindows; i++ {
			ls := in.loop(ctx, c.window()/2/answerWindows, nil)
			ls.report(fmt.Sprintf("train answers %d", i+1))
			r.addLoop(ls)
			windows = append(windows, ls)
		}
		r.set("setup_s", setupS)
		r.set("train_s", trainS)
		setLatency(r, windows)
		rss, err := vmHWMMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mb", rss)
		for _, m := range models {
			setQError(r, m.name, sums[m.name])
		}
		return r, nil
	}

	// Traced: the same answer phase untraced, then with a span per call.
	base := in.loop(ctx, c.window()/6, nil)
	rec := &recorder{}
	rec.on.Store(true)
	traced := in.loop(ctx, c.window()/6, rec)
	base.report("train answers untraced")
	traced.report("train answers traced")
	r.addLoop(base)
	r.addLoop(traced)
	setOverhead(r, base, traced)

	cfg := core.DefaultConfig("mscn")
	cfg.Seed = datasetSeed
	t2 := time.Now()
	snaps, _, err := core.BuildSnapshotsCtx(ctx, b.Dataset(), envs, cfg)
	if err != nil {
		return nil, err
	}
	snapS := time.Since(t2).Seconds()
	f := &encoding.Featurizer{Enc: encoding.New(b.Dataset().Schema), Snaps: snaps}
	t3 := time.Now()
	if _, _, err := core.Reduce(f, train, cfg); err != nil {
		return nil, err
	}
	reduceS := time.Since(t3).Seconds()

	var reps []*replaySet
	for _, m := range models {
		reps = append(reps, &replaySet{model: m.name, bench: b, est: m.est, queries: qs[:256]})
	}
	if err := missPathLedger(ctx, r, reps, answerBatchSize); err != nil {
		return nil, err
	}
	r.set("datagen.s", setupS)
	r.set("engine.label_ms_per_query", collectS*1000/float64(pool.Len()))
	r.set("snapshot.build_s", snapS)
	r.set("featred.reduce_s", reduceS)
	r.set("featred.kept_ratio", 1-models[0].est.ReductionRatio())
	r.set("mscn.train_s", models[0].est.TrainSeconds())
	r.set("qppnet.train_s", models[1].est.TrainSeconds())
	for _, name := range []string{"router.self_us", "router.route_hash_ns", "tenant.edge_us", "tenant.self_ns",
		"tenant.degraded_ratio", "tenant.shed_ratio", "serve.edge_us", "serve.queue_wait_us", "serve.batch_size",
		"qcache.probe_ns", "qcache.pred_hit_ratio", "qcache.feature_hit_ratio",
		"qcache.template_hit_ratio", "qcache.evictions_per_query", "loadgen.cpu_share"} {
		r.set(name, 0) // no serving stack in this workload
	}
	return r, nil
}

// prepAnswers draws answerTexts texts from the workload seed, each
// under one of the training environments, groups them by environment
// into batches of answerBatchSize, and takes each fitted model's
// single-query answers as the reference. It also returns the texts in
// batch order, for the miss-path replay.
func prepAnswers(c config, b *qcfe.Benchmark, models []fitted, envs []*qcfe.Environment) (*answerInput, []query, error) {
	byID := map[int]*qcfe.Environment{}
	var ids []int
	for _, e := range envs {
		byID[e.ID] = e
		ids = append(ids, e.ID)
	}
	rng := rand.New(rand.NewSource(c.seed*173 + 3))
	qs, err := newTextStream(b, c.seed*173+3).take(answerTexts, ids, rng)
	if err != nil {
		return nil, nil, err
	}
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].env < qs[j].env })
	in := &answerInput{}
	for _, f := range models {
		var cur *answerBatch
		for _, q := range qs {
			env := byID[q.env]
			want, err := f.est.EstimateSQL(env, q.sql)
			if err != nil {
				return nil, nil, err
			}
			if cur == nil || cur.env != env || len(cur.sqls) == answerBatchSize {
				cur = &answerBatch{est: f.est, env: env}
				in.batches = append(in.batches, cur)
			}
			cur.sqls = append(cur.sqls, q.sql)
			cur.want = append(cur.want, want)
		}
	}
	return in, qs, nil
}

// loop answers the batches round robin with EstimateSQLBatch, checking
// every element bit for bit against the single-query answer.
func (in *answerInput) loop(ctx context.Context, dur time.Duration, rec *recorder) *loopStats {
	// One caller, like a pipeline scoring a workload; the batch call
	// spreads planning over the cores itself.
	next := 0
	cl := &call{}
	return closedLoop(ctx, 1, dur, func(int) (*call, bool) {
		a := in.batches[next%len(in.batches)]
		next++
		cl.want, cl.sqls = a.want, a.sqls
		return cl, true
	}, func(int, *call) error {
		a := in.batches[(next-1)%len(in.batches)]
		t0 := time.Now()
		ms, err := a.est.EstimateSQLBatch(a.env, a.sqls)
		rec.add(span{name: "library.estimate_batch", start: t0, end: time.Now()})
		if err != nil {
			return err
		}
		for i := range ms {
			if !sameBits(ms[i], a.want[i]) {
				return fmt.Errorf("EstimateSQLBatch(%q) = %v, EstimateSQL says %v", a.sqls[i], ms[i], a.want[i])
			}
		}
		return nil
	})
}
