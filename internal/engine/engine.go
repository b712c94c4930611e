// Package engine executes physical plans over the storage layer and
// produces both the query results and the simulated execution time that
// labels every training example.
//
// Each operator does real row work (predicate evaluation, hashing,
// sorting, merging) and counts the physical resources it consumes —
// sequential page reads, random page reads, tuples processed, index tuples
// processed, operator startups, and spill pages. The environment
// (internal/dbenv) converts those counts into milliseconds via the paper's
// cost identity  cost = cs·ns + cr·nr + ct·nt + ci·ni + co·no, with the
// environment's cache, spill, and parallelism effects applied. This makes
// the simulated latency respond to the "ignored variables" exactly the way
// the paper's §III-A premise describes.
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/catalog"
	"repro/internal/dbenv"
	"repro/internal/planner"
	"repro/internal/storage"
)

// maxJoinRows bounds materialized join outputs. The engine materializes
// operator outputs (unlike a streaming executor), so a mis-planned join on
// a pathological key distribution could otherwise exhaust memory; queries
// hitting the bound fail cleanly and are skipped by workload collection.
const maxJoinRows = 5_000_000

// Executor runs plans for one dataset inside one environment. It holds no
// mutable state besides the serial-convenience query counter, and DB and
// Env are read-only during execution, so concurrent labeling uses one
// Executor per goroutine over the same database (see internal/parallel).
type Executor struct {
	DB  *storage.Database
	Env *dbenv.Environment

	querySeq int64 // monotone counter feeding Execute's noise stream
}

// New builds an executor.
func New(db *storage.Database, env *dbenv.Environment) *Executor {
	return &Executor{DB: db, Env: env}
}

// Result is one executed query: output rows plus the simulated latency.
// The plan tree passed to Execute is annotated in place with per-node
// actuals (rows, input cardinalities, own time).
type Result struct {
	Rows    []catalog.Row
	TotalMs float64
}

// Execute runs the plan and returns rows plus simulated time. The plan's
// Actual* fields are overwritten. The noise sequence advances with every
// call, so Execute is not safe for concurrent use on one Executor;
// parallel callers use ExecuteSeq with an explicit sequence instead.
func (e *Executor) Execute(root *planner.Node) (*Result, error) {
	e.querySeq++
	return e.ExecuteSeq(root, e.querySeq)
}

// ExecuteSeq runs the plan with an explicit noise sequence number. The
// per-query jitter is derived only from (environment ID, seq), so a caller
// that assigns each query a fixed sequence — e.g. its index in the
// generated workload — gets bit-identical labels no matter how many
// goroutines execute the workload or in what order.
func (e *Executor) ExecuteSeq(root *planner.Node, seq int64) (*Result, error) {
	rows, err := e.exec(root)
	if err != nil {
		return nil, err
	}
	if root.Limit >= 0 && len(rows) > root.Limit {
		rows = rows[:root.Limit]
	}
	// One multiplicative noise factor per query, applied to every node so
	// per-node and total times stay consistent.
	f := e.Env.Noise(seq)
	root.Walk(func(n *planner.Node) { n.ActualMs *= f })
	return &Result{Rows: rows, TotalMs: root.TotalMs()}, nil
}

// counters accumulates one node's physical resource usage.
type counters struct {
	seqPages  int64
	randPages int64
	tuples    int64
	idxTuples int64
	startups  int64
	// relPages is the size of the relation whose pages are being charged;
	// it drives the environment's cache model.
	relPages int64
	parallel bool // scan-type node eligible for parallel speedup
}

// ms converts the counters into simulated milliseconds under e.Env.
func (e *Executor) ms(c counters) float64 {
	rel := c.relPages
	if rel <= 0 {
		rel = 1
	}
	t := float64(c.seqPages)*e.Env.SeqPageCost(rel) +
		float64(c.randPages)*e.Env.RandPageCost(rel) +
		float64(c.tuples)*e.Env.TupleCost() +
		float64(c.idxTuples)*e.Env.IdxTupleCost() +
		float64(c.startups)*e.Env.OperatorCost()
	if c.parallel {
		t /= e.Env.ParallelSpeedup()
	}
	return t
}

func (e *Executor) exec(n *planner.Node) ([]catalog.Row, error) {
	switch n.Op {
	case planner.SeqScan:
		return e.execSeqScan(n)
	case planner.IndexScan:
		return e.execIndexScan(n)
	case planner.Sort:
		return e.execSort(n)
	case planner.HashJoin:
		return e.execHashJoin(n)
	case planner.MergeJoin:
		return e.execMergeJoin(n)
	case planner.NestedLoop:
		return e.execNestedLoop(n)
	case planner.Aggregate:
		return e.execAggregate(n)
	case planner.Materialize:
		return e.execMaterialize(n)
	}
	return nil, fmt.Errorf("engine: unknown operator %v", n.Op)
}

func (e *Executor) execSeqScan(n *planner.Node) ([]catalog.Row, error) {
	h := e.DB.Heap(n.Table)
	if h == nil {
		return nil, fmt.Errorf("engine: no heap for table %q", n.Table)
	}
	var out []catalog.Row
	total := h.NumRows()
	for id := 0; id < total; id++ {
		row := h.Get(id)
		if matchAll(n.Preds, row) {
			out = append(out, row)
		}
	}
	c := counters{
		seqPages: h.NumPages(),
		tuples:   int64(total),
		startups: 1,
		relPages: h.NumPages(),
		parallel: true,
	}
	n.ActualIn1 = float64(total)
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func (e *Executor) execIndexScan(n *planner.Node) ([]catalog.Row, error) {
	h := e.DB.Heap(n.Table)
	idx := e.DB.Index(n.Index)
	if h == nil || idx == nil {
		return nil, fmt.Errorf("engine: missing heap/index for %q/%q", n.Table, n.Index)
	}
	lo, hi, loInc, hiInc := indexBounds(n.IndexPred)
	var out []catalog.Row
	var matches int64
	idx.Range(lo, hi, loInc, hiInc, func(id int) bool {
		matches++
		row := h.Get(id)
		if matchAll(n.Preds, row) {
			out = append(out, row)
		}
		return true
	})
	leafPages := int64(math.Ceil(float64(matches) / 256))
	c := counters{
		randPages: int64(idx.Height()) + leafPages + matches, // descent + leaves + heap fetches
		idxTuples: matches,
		tuples:    matches,
		startups:  1,
		relPages:  h.NumPages(),
	}
	n.ActualIn1 = float64(matches)
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

// indexBounds converts the index-serving predicate into a B+tree interval.
func indexBounds(p *planner.CompiledPred) (lo, hi *catalog.Value, loInc, hiInc bool) {
	if p == nil {
		return nil, nil, true, true
	}
	args := p.Src.Args
	switch p.Src.Op {
	case "=":
		return &args[0], &args[0], true, true
	case "<":
		return nil, &args[0], true, false
	case "<=":
		return nil, &args[0], true, true
	case ">":
		return &args[0], nil, false, true
	case ">=":
		return &args[0], nil, true, true
	case "between":
		return &args[0], &args[1], true, true
	}
	return nil, nil, true, true
}

func (e *Executor) execSort(n *planner.Node) ([]catalog.Row, error) {
	in, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	rows := sortRows(in, n.SortCols, n.SortDesc)
	nn := int64(len(rows))
	comparisons := nn * ceilLog2(nn)
	bytes := nn * int64(n.EstWidth)
	passes := e.Env.SpillPasses(bytes)
	c := counters{
		tuples:   comparisons,
		seqPages: 2 * int64(passes) * (bytes/storage.PageSize + 1),
		startups: 1,
		relPages: bytes/storage.PageSize + 1,
	}
	n.ActualIn1 = float64(nn)
	n.ActualRows = nn
	n.ActualMs = e.ms(c)
	return rows, nil
}

func (e *Executor) execHashJoin(n *planner.Node) ([]catalog.Row, error) {
	left, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := e.exec(n.Children[1]) // build side (planner puts smaller here)
	if err != nil {
		return nil, err
	}
	build := make(map[catalog.Value][]catalog.Row, len(right))
	rc := n.JoinRightCol
	for _, r := range right {
		k := r[rc]
		if k.Null {
			continue
		}
		build[k] = append(build[k], r)
	}
	var out []catalog.Row
	var slab rowSlab
	var matches int64
	lc := n.JoinLeftCol
	for _, l := range left {
		k := l[lc]
		if k.Null {
			continue
		}
		for _, r := range build[k] {
			matches++
			out = append(out, slab.concat(l, r))
		}
		if len(out) > maxJoinRows {
			return nil, fmt.Errorf("engine: hash join result exceeds %d rows", maxJoinRows)
		}
	}
	buildBytes := int64(len(right)) * int64(n.Children[1].EstWidth)
	passes := e.Env.SpillPasses(buildBytes)
	totalBytes := buildBytes + int64(len(left))*int64(n.Children[0].EstWidth)
	c := counters{
		tuples:   int64(len(left)) + int64(len(right)) + matches,
		seqPages: 2 * int64(passes) * (totalBytes/storage.PageSize + 1),
		startups: 1,
		relPages: totalBytes/storage.PageSize + 1,
	}
	n.ActualIn1 = float64(len(left))
	n.ActualIn2 = float64(len(right))
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func (e *Executor) execMergeJoin(n *planner.Node) ([]catalog.Row, error) {
	left, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := e.exec(n.Children[1])
	if err != nil {
		return nil, err
	}
	lc, rc := n.JoinLeftCol, n.JoinRightCol
	var out []catalog.Row
	var slab rowSlab
	var matches int64
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		cmp := left[i][lc].Compare(right[j][rc])
		switch {
		case left[i][lc].Null:
			i++
		case right[j][rc].Null:
			j++
		case cmp < 0:
			i++
		case cmp > 0:
			j++
		default:
			// Find the full duplicate group on each side.
			i2 := i
			for i2 < len(left) && left[i2][lc].Compare(right[j][rc]) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(right) && right[j2][rc].Compare(left[i][lc]) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					matches++
					out = append(out, slab.concat(left[a], right[b]))
				}
			}
			if len(out) > maxJoinRows {
				return nil, fmt.Errorf("engine: merge join result exceeds %d rows", maxJoinRows)
			}
			i, j = i2, j2
		}
	}
	c := counters{
		tuples:   int64(len(left)) + int64(len(right)) + matches,
		startups: 1,
		relPages: 1,
	}
	n.ActualIn1 = float64(len(left))
	n.ActualIn2 = float64(len(right))
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

// execNestedLoop produces nested-loop results and charges quadratic work.
// For equi-joins the matching inner rows are located via a hash table so
// the *computation* stays bounded, while the *charged* tuple count is the
// full n1·n2 scan the operator logically performs — the simulation rule
// described in docs/ARCHITECTURE.md §1 ("What the engine computes versus
// what it charges").
func (e *Executor) execNestedLoop(n *planner.Node) ([]catalog.Row, error) {
	outer, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	inner, err := e.exec(n.Children[1])
	if err != nil {
		return nil, err
	}
	rc := n.JoinRightCol
	byKey := make(map[catalog.Value][]catalog.Row, len(inner))
	for _, r := range inner {
		if !r[rc].Null {
			byKey[r[rc]] = append(byKey[r[rc]], r)
		}
	}
	var out []catalog.Row
	var slab rowSlab
	lc := n.JoinLeftCol
	for _, l := range outer {
		if l[lc].Null {
			continue
		}
		for _, r := range byKey[l[lc]] {
			out = append(out, slab.concat(l, r))
		}
		if len(out) > maxJoinRows {
			return nil, fmt.Errorf("engine: nested loop result exceeds %d rows", maxJoinRows)
		}
	}
	c := counters{
		tuples:   int64(len(outer))*int64(len(inner)) + int64(len(outer)),
		startups: 1,
		relPages: 1,
	}
	n.ActualIn1 = float64(len(outer))
	n.ActualIn2 = float64(len(inner))
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func (e *Executor) execMaterialize(n *planner.Node) ([]catalog.Row, error) {
	in, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	bytes := int64(len(in)) * int64(n.EstWidth)
	passes := e.Env.SpillPasses(bytes)
	c := counters{
		tuples:   int64(len(in)),
		seqPages: 2 * int64(passes) * (bytes/storage.PageSize + 1),
		startups: 1,
		relPages: bytes/storage.PageSize + 1,
	}
	n.ActualIn1 = float64(len(in))
	n.ActualRows = int64(len(in))
	n.ActualMs = e.ms(c)
	return in, nil
}

// aggState accumulates one group.
type aggState struct {
	key    catalog.Row
	counts []int64
	sums   []int64
	mins   []catalog.Value
	maxs   []catalog.Value
}

func (e *Executor) execAggregate(n *planner.Node) ([]catalog.Row, error) {
	in, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	groups := make(map[string]*aggState)
	order := make([]string, 0, 16)
	for _, row := range in {
		key := groupKey(row, n.GroupCols)
		st := groups[key]
		if st == nil {
			st = &aggState{
				counts: make([]int64, len(n.Aggs)),
				sums:   make([]int64, len(n.Aggs)),
				mins:   make([]catalog.Value, len(n.Aggs)),
				maxs:   make([]catalog.Value, len(n.Aggs)),
			}
			for _, gc := range n.GroupCols {
				st.key = append(st.key, row[gc])
			}
			for i := range n.Aggs {
				st.mins[i] = catalog.NullVal()
				st.maxs[i] = catalog.NullVal()
			}
			groups[key] = st
			order = append(order, key)
		}
		for ai, a := range n.Aggs {
			if a.Col < 0 { // COUNT(*)
				st.counts[ai]++
				continue
			}
			v := row[a.Col]
			if v.Null {
				continue
			}
			st.counts[ai]++
			st.sums[ai] += v.I
			if st.mins[ai].Null || v.Compare(st.mins[ai]) < 0 {
				st.mins[ai] = v
			}
			if st.maxs[ai].Null || v.Compare(st.maxs[ai]) > 0 {
				st.maxs[ai] = v
			}
		}
	}
	// Scalar aggregate over empty input still yields one row.
	if len(n.GroupCols) == 0 && len(order) == 0 {
		st := &aggState{
			counts: make([]int64, len(n.Aggs)),
			sums:   make([]int64, len(n.Aggs)),
			mins:   make([]catalog.Value, len(n.Aggs)),
			maxs:   make([]catalog.Value, len(n.Aggs)),
		}
		for i := range n.Aggs {
			st.mins[i] = catalog.NullVal()
			st.maxs[i] = catalog.NullVal()
		}
		groups[""] = st
		order = append(order, "")
	}
	out := make([]catalog.Row, 0, len(order))
	for _, key := range order {
		st := groups[key]
		row := append(catalog.Row{}, st.key...)
		for ai, a := range n.Aggs {
			switch a.Func {
			case "count":
				row = append(row, catalog.IntVal(st.counts[ai]))
			case "sum":
				row = append(row, catalog.Value{I: st.sums[ai]})
			case "avg":
				if st.counts[ai] == 0 {
					row = append(row, catalog.NullVal())
				} else {
					row = append(row, catalog.Value{I: st.sums[ai] / st.counts[ai]})
				}
			case "min":
				row = append(row, st.mins[ai])
			case "max":
				row = append(row, st.maxs[ai])
			default:
				return nil, fmt.Errorf("engine: unsupported aggregate %q", a.Func)
			}
		}
		out = append(out, row)
	}
	c := counters{
		tuples:   int64(len(in)),
		startups: 1 + int64(len(out)),
		relPages: 1,
	}
	n.ActualIn1 = float64(len(in))
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func groupKey(row catalog.Row, cols []int) string {
	if len(cols) == 0 {
		return ""
	}
	var b []byte
	for _, c := range cols {
		v := row[c]
		if v.Null {
			b = append(b, 0xFF)
		} else if v.IsStr {
			b = append(b, v.S...)
		} else {
			for s := 0; s < 64; s += 8 {
				b = append(b, byte(v.I>>s))
			}
		}
		b = append(b, 0)
	}
	return string(b)
}

func matchAll(preds []planner.CompiledPred, row catalog.Row) bool {
	for i := range preds {
		if !preds[i].Eval(row[preds[i].Col]) {
			return false
		}
	}
	return true
}

// sortRows returns rows ordered by cols (desc[k] reverses column k),
// stably: rows equal on every key keep their input order. It sorts an
// int32 permutation with pdqsort rather than moving row headers, and the
// comparator breaks key ties by input index — a total order, so the
// result is exactly what a stable sort produces. The input is not
// modified.
func sortRows(rows []catalog.Row, cols []int, desc []bool) []catalog.Row {
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		ra, rb := rows[a], rows[b]
		for k, c := range cols {
			if d := ra[c].Compare(rb[c]); d != 0 {
				if desc[k] {
					return -d
				}
				return d
			}
		}
		return cmp.Compare(a, b)
	})
	out := make([]catalog.Row, len(rows))
	for i, p := range perm {
		out[i] = rows[p]
	}
	return out
}

// slabRows caps how many join output rows share one backing chunk.
const slabRows = 128

// rowSlab hands out join output rows carved from shared []catalog.Value
// chunks of slabRows rows, so a join allocates once per chunk instead of
// once per output row. Every row is capped at its own length
// (s[lo:hi:hi]): an append to a handed-out row copies it and never
// writes into its neighbour.
type rowSlab struct {
	buf []catalog.Value
}

// concat returns a followed by b as one row carved from the slab.
func (s *rowSlab) concat(a, b catalog.Row) catalog.Row {
	w := len(a) + len(b)
	if cap(s.buf)-len(s.buf) < w {
		s.buf = make([]catalog.Value, 0, slabRows*w)
	}
	lo := len(s.buf)
	s.buf = append(append(s.buf, a...), b...)
	return s.buf[lo:len(s.buf):len(s.buf)]
}

func ceilLog2(n int64) int64 {
	if n < 2 {
		return 1
	}
	return int64(math.Ceil(math.Log2(float64(n))))
}
