// Command perfbench is the repository's end-to-end benchmark. It starts
// the qcfe-serve and qcfe-router binaries built from the tree on
// loopback, drives them from this one process, checks every answer
// against the library, and prints one JSON result line. See README.md
// for the workloads, the metrics and how each one is measured.
//
//	perfbench -bin <dir with qcfe-serve, qcfe-router> -workload skewed-tenant -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	qcfe "repro"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is every metric an untraced run reports, in every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"train_s", "s"},
	{"mscn_qerror_p50", "ratio"},
	{"mscn_qerror_p90", "ratio"},
	{"qppnet_qerror_p50", "ratio"},
	{"qppnet_qerror_p90", "ratio"},
}

// perLayer is every metric a traced run reports, in every workload. A
// layer the workload does not exercise reports 0 (README.md lists
// which).
var perLayer = []metricDef{
	{"router.self_us", "us"},
	{"router.route_hash_ns", "ns"},
	{"tenant.edge_us", "us"},
	{"tenant.self_ns", "ns"},
	{"tenant.degraded_ratio", "ratio"},
	{"tenant.shed_ratio", "ratio"},
	{"serve.edge_us", "us"},
	{"serve.queue_wait_us", "us"},
	{"serve.batch_size", "queries"},
	{"qcache.probe_ns", "ns"},
	{"qcache.store_us", "us"},
	{"qcache.pred_hit_ratio", "ratio"},
	{"qcache.feature_hit_ratio", "ratio"},
	{"qcache.template_hit_ratio", "ratio"},
	{"qcache.evictions_per_query", "ratio"},
	{"sqlparse.fingerprint_us", "us"},
	{"planner.plan_us", "us"},
	{"featurize.self_us", "us"},
	{"mscn.predict_us", "us"},
	{"qppnet.predict_us", "us"},
	{"datagen.s", "s"},
	{"engine.label_ms_per_query", "ms"},
	{"snapshot.build_s", "s"},
	{"featred.reduce_s", "s"},
	{"featred.kept_ratio", "ratio"},
	{"mscn.train_s", "s"},
	{"qppnet.train_s", "s"},
	{"loadgen.cpu_share", "ratio"},
	{"trace.overhead_p50_us", "us"},
	{"trace.overhead_qps_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding the built daemons
	work     string // scratch directory for artifacts and logs
	self     string // this executable, re-run for set-up timing
}

// window is the measured part of a run.
func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

func main() { os.Exit(run()) }

func run() int {
	var c config
	var traceFlag int
	openBench := flag.String("open-benchmark", "", "internal: time qcfe.OpenBenchmark for this benchmark and print the seconds")
	flag.StringVar(&c.workload, "workload", "", "skewed-tenant | cold-routed | train")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: every generated text and draw derives from it")
	flag.IntVar(&c.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&c.bin, "bin", "", "directory holding the qcfe-serve and qcfe-router binaries")
	flag.Parse()

	if *openBench != "" {
		t0 := startClock()
		if _, err := qcfe.OpenBenchmark(*openBench, datasetSeed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(t0.seconds())
		return 0
	}
	if c.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || c.bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -seconds >= 1 and -trace 0|1")
		return 2
	}
	c.trace = traceFlag == 1
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	c.self = self
	c.work = filepath.Join(filepath.Dir(c.bin), fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(c.work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer stopAll()

	// The generator may use at most one thread per core.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var res *result
	switch c.workload {
	case "skewed-tenant":
		res, err = runSkewedTenant(ctx, c)
	case "cold-routed":
		res, err = runColdRouted(ctx, c)
	case "train":
		res, err = runTrain(ctx, c)
	default:
		err = fmt.Errorf("unknown workload %q", c.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	if err := res.checkMetrics(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metricValue{}} }

// set records a metric under its declared unit.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// checkMetrics verifies the result reports exactly the wanted metrics.
func (r *result) checkMetrics(want []metricDef) error {
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, d := range want {
		if _, ok := r.Metrics[d.name]; !ok {
			return fmt.Errorf("metric %s not reported", d.name)
		}
	}
	return nil
}

// addLoop folds a closed loop's counts into the result.
func (r *result) addLoop(ls *loopStats) {
	r.Attempted += ls.attempted
	r.Failed += ls.failed
	if ls.failed > 0 {
		r.Correct = false
	}
}

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// info prints a human-readable line on standard output, ahead of the
// result line.
func info(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }
