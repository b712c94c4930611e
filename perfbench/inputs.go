package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	qcfe "repro"
	"repro/internal/workload"
)

const (
	// datasetSeed fixes the benchmark databases and the serving
	// artifacts: every run serves the same two models, whatever -seed.
	datasetSeed = 1
	// Serving artifacts are trained on a small fixed-seed pool: model
	// shape, and so serving cost, does not depend on the pool size.
	artifactEnvs   = 2
	artifactPerEnv = 100
)

// model is one trained estimator and how it was made.
type model struct {
	name   string // serving tenant name
	kind   string // mscn or qppnet
	bench  *qcfe.Benchmark
	path   string              // the artifact on disk, for the daemons
	bytes  []byte              // the artifact
	ref    *qcfe.CostEstimator // loaded from bytes, no cache: the reference answers
	envs   map[int]*qcfe.Environment
	envIDs []int
	qerr   qcfe.Summary // hold-out q-error
}

// trainModel collects a labeled pool and fits one QCFE pipeline on 80%
// of it, scoring the other 20%. It returns the collection and fit
// times separately.
func trainModel(b *qcfe.Benchmark, modelName string, envs []*qcfe.Environment, perEnv int, seed int64) (*qcfe.CostEstimator, qcfe.Summary, float64, float64, error) {
	t0 := startClock()
	pool, err := b.CollectWorkload(envs, perEnv, seed)
	if err != nil {
		return nil, qcfe.Summary{}, 0, 0, err
	}
	collectS := t0.seconds()
	train, test := pool.Split(0.8)
	t1 := startClock()
	est, err := qcfe.NewPipeline(modelName, qcfe.WithSeed(datasetSeed)).Fit(b, envs, train)
	if err != nil {
		return nil, qcfe.Summary{}, 0, 0, err
	}
	fitS := t1.seconds()
	return est, est.Evaluate(test), collectS, fitS, nil
}

// buildArtifacts trains the two serving models from the fixed seed and
// writes them to the work directory: alpha is QCFE(mscn) on tpch and
// beta QCFE(qppnet) on imdb. It returns the collection-plus-fit time.
func buildArtifacts(c config) (alpha, beta *model, trainS float64, err error) {
	build := func(name, bench, modelName string) (*model, error) {
		b, err := qcfe.OpenBenchmark(bench, datasetSeed)
		if err != nil {
			return nil, err
		}
		envs := qcfe.RandomEnvironments(artifactEnvs, datasetSeed)
		est, sum, collectS, fitS, err := trainModel(b, modelName, envs, artifactPerEnv, datasetSeed)
		if err != nil {
			return nil, err
		}
		trainS += collectS + fitS
		var buf bytes.Buffer
		if err := est.Save(&buf); err != nil {
			return nil, err
		}
		m := &model{name: name, kind: modelName, bench: b, bytes: buf.Bytes(), qerr: sum}
		m.path = filepath.Join(c.work, name+".qcfe")
		if err := os.WriteFile(m.path, m.bytes, 0o644); err != nil {
			return nil, err
		}
		if m.ref, err = m.load(); err != nil {
			return nil, err
		}
		m.envs = map[int]*qcfe.Environment{}
		for _, e := range m.ref.Environments() {
			m.envs[e.ID] = e
			m.envIDs = append(m.envIDs, e.ID)
		}
		return m, nil
	}
	if alpha, err = build("alpha", "tpch", "mscn"); err != nil {
		return nil, nil, 0, fmt.Errorf("train alpha: %w", err)
	}
	if beta, err = build("beta", "imdb", "qppnet"); err != nil {
		return nil, nil, 0, fmt.Errorf("train beta: %w", err)
	}
	return alpha, beta, trainS, nil
}

// load returns a fresh estimator from the artifact, with no cache.
func (m *model) load() (*qcfe.CostEstimator, error) {
	return qcfe.LoadEstimator(bytes.NewReader(m.bytes))
}

// setQError reports a model's hold-out q-error under its model name.
func setQError(r *result, modelName string, s qcfe.Summary) {
	r.set(modelName+"_qerror_p50", s.Median)
	r.set(modelName+"_qerror_p90", s.P90)
}

// query is one text under one environment with its expected answer.
type query struct {
	env  int
	sql  string
	want float64
}

// textStream yields distinct generated texts: workload.NewGenerator
// over the benchmark's templates, skipping any text it already gave.
type textStream struct {
	g    *workload.Generator
	tpl  []string
	i    int
	seen map[string]bool
}

func newTextStream(b *qcfe.Benchmark, seed int64) *textStream {
	return &textStream{
		g:    workload.NewGenerator(b.Dataset(), seed),
		tpl:  workload.TemplatesFor(b.Name()),
		seen: map[string]bool{},
	}
}

// take returns n texts never returned before, each under an
// environment drawn from envIDs.
func (s *textStream) take(n int, envIDs []int, rng *rand.Rand) ([]query, error) {
	out := make([]query, 0, n)
	for misses := 0; len(out) < n; {
		sql, err := s.g.Instantiate(s.tpl[s.i%len(s.tpl)])
		s.i++
		if err != nil {
			return nil, err
		}
		if s.seen[sql] {
			if misses++; misses > 50*n+10000 {
				return nil, fmt.Errorf("generator ran out of distinct texts after %d", len(s.seen))
			}
			continue
		}
		s.seen[sql] = true
		out = append(out, query{env: envIDs[rng.Intn(len(envIDs))], sql: sql})
	}
	return out, nil
}

// expect fills in each query's answer from the library: the
// reference estimator's EstimateSQLBatch, one batch per environment.
func (m *model) expect(qs []query) error {
	byEnv := map[int][]int{}
	for i, q := range qs {
		byEnv[q.env] = append(byEnv[q.env], i)
	}
	for env, idx := range byEnv {
		sqls := make([]string, len(idx))
		for k, i := range idx {
			sqls[k] = qs[i].sql
		}
		ms, err := m.ref.EstimateSQLBatch(m.envs[env], sqls)
		if err != nil {
			return fmt.Errorf("%s: library estimate: %w", m.name, err)
		}
		for k, i := range idx {
			qs[i].want = ms[k]
		}
	}
	return nil
}

// sameBits compares two answers bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
