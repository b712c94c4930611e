package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// call is one request a client sends and the answer it must get back.
type call struct {
	path   string // /estimate or /estimate_batch
	tenant string // X-QCFE-Tenant, empty for a single-tenant stack
	body   []byte
	env    int
	sqls   []string
	want   []float64
	hot    bool // a text of the warmed hot set
}

// loopStats is what one closed loop measured.
type loopStats struct {
	lat                        []float64 // per request, ms, in order of sending
	at                         []float64 // when each request was sent, s into the window
	attempted, failed, answers int64
	hot                        int64 // requests for hot-set texts
	elapsed                    time.Duration
	exhausted                  bool // the input pool ran out before the window ended
	cpuS                       float64
	steal                      float64 // share of the machine's CPU time the host took
	errMu                      sync.Mutex
	errs                       []string
}

func (ls *loopStats) qps() float64 { return float64(ls.answers) / ls.elapsed.Seconds() }

// cpuShare is the generator's CPU seconds per wall second: with the
// daemons in other processes, this process is only the generator.
func (ls *loopStats) cpuShare() float64 { return ls.cpuS / ls.elapsed.Seconds() }

func (ls *loopStats) noteErr(err error) {
	ls.errMu.Lock()
	if len(ls.errs) < 5 {
		ls.errs = append(ls.errs, err.Error())
	}
	ls.errMu.Unlock()
}

// closedLoop runs `clients` callers for dur. Each sends its next
// request only after the previous one is answered. A caller stops when
// next reports the input pool is used up.
func closedLoop(ctx context.Context, clients int, dur time.Duration, next func(client int) (*call, bool), do func(client int, c *call) error) *loopStats {
	ls := &loopStats{}
	type part struct {
		lat, at                         []float64
		attempted, failed, answers, hot int64
		exhausted                       bool
	}
	parts := make([]part, clients)
	cpu0 := cpuSeconds()
	clock := startClock()
	start := clock.t0
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			p := &parts[cl]
			p.lat = make([]float64, 0, 1<<15)
			p.at = make([]float64, 0, 1<<15)
			for ctx.Err() == nil && time.Now().Before(deadline) {
				c, ok := next(cl)
				if !ok {
					p.exhausted = true
					return
				}
				t0 := time.Now()
				err := do(cl, c)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				p.attempted++
				if err != nil {
					p.failed++
					ls.noteErr(err)
					continue
				}
				p.answers += int64(len(c.want))
				p.lat = append(p.lat, ms)
				p.at = append(p.at, t0.Sub(start).Seconds())
				if c.hot {
					p.hot++
				}
			}
		}(cl)
	}
	wg.Wait()
	ls.elapsed = time.Since(start)
	ls.cpuS = cpuSeconds() - cpu0
	ls.steal = clock.steal()
	for _, p := range parts {
		ls.lat = append(ls.lat, p.lat...)
		ls.at = append(ls.at, p.at...)
		ls.hot += p.hot
		ls.attempted += p.attempted
		ls.failed += p.failed
		ls.answers += p.answers
		ls.exhausted = ls.exhausted || p.exhausted
	}
	ls.sortBySendTime()
	return ls
}

// sortBySendTime interleaves the clients' samples in the order they
// were sent.
func (ls *loopStats) sortBySendTime() {
	idx := make([]int, len(ls.at))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ls.at[idx[a]] < ls.at[idx[b]] })
	lat, at := make([]float64, len(idx)), make([]float64, len(idx))
	for i, j := range idx {
		lat[i], at[i] = ls.lat[j], ls.at[j]
	}
	ls.lat, ls.at = lat, at
}

// report prints the loop's counts and any failures.
func (ls *loopStats) report(label string) {
	rate := 0.0
	if ls.attempted > 0 {
		rate = float64(ls.failed) / float64(ls.attempted)
	}
	lat := append([]float64(nil), ls.lat...)
	info("%s: %d requests, %d failed (error_rate %.6f), %d answers in %.2fs wall, latency samples %d; wall-clock qps %.1f p50 %.4fms p99 %.4fms; steal share %.3f",
		label, ls.attempted, ls.failed, rate, ls.answers, ls.elapsed.Seconds(), len(lat), ls.qps(), quantile(lat, 0.5), quantile(lat, 0.99), ls.steal)
	if ls.exhausted {
		info("%s: input pool used up after %.2fs; rates use the shorter window", label, ls.elapsed.Seconds())
	}
	for _, e := range ls.errs {
		info("%s: failure: %s", label, e)
	}
}

// sliceRequests is how many consecutive requests one latency slice
// holds (see setLatency).
const sliceRequests = 100

// setLatency reports throughput and median latency as the median over
// several timed windows, each window's median taken over its own
// requests, in unstolen time (see cpuClock). latency_p99_ms is the
// median, over every slice of sliceRequests consecutive requests in
// those windows, of the slice's 99th percentile. A burst of load from
// outside the program (another guest on the host) inflates the tail of
// the few slices it overlaps and leaves this median alone, where it
// would set the p99 of the whole window; a tail the program makes in
// every slice, such as garbage collection or a batching wait, stays in
// it.
func setLatency(r *result, windows []*loopStats) {
	var qps, p50, p99 []float64
	samples := 0
	for _, ls := range windows {
		left := 1 - ls.steal
		qps = append(qps, ls.qps()/left)
		p50 = append(p50, median(ls.lat)*left)
		for i := 0; i < len(ls.lat); i += sliceRequests {
			if len(ls.lat)-i < sliceRequests && i > 0 {
				break // a short last slice would hold too few samples
			}
			part := append([]float64(nil), ls.lat[i:min(i+sliceRequests, len(ls.lat))]...)
			p99 = append(p99, quantile(part, 0.99)*left)
		}
		samples += len(ls.lat)
	}
	info("latency: %d samples; p99 is the median over %d slices of %d consecutive requests", samples, len(p99), sliceRequests)
	r.set("throughput_qps", median(qps))
	r.set("latency_p50_ms", median(p50))
	r.set("latency_p99_ms", median(p99))
}

// cpuClock times an interval in wall time and in unstolen time. On a
// shared host the hypervisor runs other guests on the guest's CPUs
// for a varying share of the time (the steal counter of /proc/stat);
// everything here then runs slower in wall time, by that share, for
// reasons outside the program. Timings are reported as wall time ×
// (1 − steal share), and throughput as answers per unstolen second. On
// a dedicated machine the steal share is 0 and both clocks agree.
type cpuClock struct {
	t0    time.Time
	stat0 []int64
}

func startClock() cpuClock { return cpuClock{time.Now(), readCPUStat()} }

// steal is the share of the machine's CPU time taken since the start.
func (c cpuClock) steal() float64 { return stealShare(c.stat0, readCPUStat()) }

// seconds is the unstolen time since the start.
func (c cpuClock) seconds() float64 {
	s := c.steal()
	return time.Since(c.t0).Seconds() * (1 - s)
}

// readCPUStat reads the machine-wide CPU tick counters (user, nice,
// system, idle, iowait, irq, softirq, steal, ...).
func readCPUStat() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var ticks []int64
	for _, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		ticks = append(ticks, v)
	}
	return ticks
}

// stealShare is the share of CPU ticks between two readings that the
// hypervisor gave to other guests.
func stealShare(a, b []int64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(total)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// httpLoad sends calls over one keep-alive connection per client and
// checks every reply: a non-200 status, a transport error, a degraded
// answer or a value that differs from the library's in any bit is a
// failure.
type httpLoad struct {
	base    string
	clients []*http.Client
	// traced, when set, gives every request a trace ID and reports its
	// round trip.
	traced func(c *call, id string, t0, t1 time.Time)
	ids    atomic.Uint64
}

func newHTTPLoad(base string, clients int) *httpLoad {
	h := &httpLoad{base: base}
	for i := 0; i < clients; i++ {
		h.clients = append(h.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		})
	}
	return h
}

func (h *httpLoad) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
}

func (h *httpLoad) do(client int, c *call) error {
	req, err := http.NewRequest(http.MethodPost, h.base+c.path, bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tenant != "" {
		req.Header.Set(serve.TenantHeader, c.tenant)
	}
	var id string
	if h.traced != nil {
		id = fmt.Sprintf("%032x", h.ids.Add(1))
		req.Header.Set(obs.TraceHeader, id)
	}
	t0 := time.Now()
	resp, err := h.clients[client].Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if h.traced != nil {
		h.traced(c, id, t0, time.Now())
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", c.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	var got []float64
	var degraded bool
	if c.path == "/estimate" {
		var r serve.EstimateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		got, degraded = []float64{r.Ms}, r.Degraded
	} else {
		var r serve.BatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		got, degraded = r.Ms, r.Degraded
	}
	if degraded {
		return fmt.Errorf("%s: degraded answer", c.path)
	}
	if len(got) != len(c.want) {
		return fmt.Errorf("%s: %d answers for %d queries", c.path, len(got), len(c.want))
	}
	for i := range got {
		if !sameBits(got[i], c.want[i]) {
			return fmt.Errorf("%s: env %d %q: got %v, library says %v", c.path, c.env, c.sqls[i], got[i], c.want[i])
		}
	}
	return nil
}

// getJSON fetches a GET endpoint into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sendAll sends every call once from `clients` callers, untimed: the
// warm-up. Every answer is still checked.
func sendAll(ctx context.Context, h *httpLoad, calls []*call) error {
	ls := closedLoop(ctx, len(h.clients), time.Hour, listSource(calls), h.do)
	if ls.failed > 0 {
		ls.report("warm-up")
		return fmt.Errorf("warm-up: %d of %d requests failed", ls.failed, ls.attempted)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
