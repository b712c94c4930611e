package engine

import (
	"context"
	"log"
	"runtime/debug"

	"repro/internal/catalog"
	"repro/internal/dbenv"
	"repro/internal/parallel"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// PoolTask is one (environment, query) labeling unit of a fan-out: a SQL
// string to parse, plan, and execute under Env with the given noise
// sequence (by convention, the query's 1-based index within its generated
// list — see ExecuteSeq).
type PoolTask struct {
	Env *dbenv.Environment
	Seq int64
	SQL string
}

// PoolResult is one task's outcome. OK is false when the query failed to
// parse, plan, or execute — or panicked doing so; the pipeline treats
// those as skipped. Panic holds the recovered value and stack of a task
// that panicked, nil otherwise.
type PoolResult struct {
	Node  *planner.Node
	Ms    float64
	OK    bool
	Panic *parallel.WorkerPanic
}

// ExecutePool runs labeling tasks across a bounded worker pool and
// returns one result per task, index-aligned. It is the shared fan-out of
// the labeling pipeline — workload collection, snapshot labeling, and the
// Figure 1 probe all funnel through it.
//
// Each worker lazily builds one planner and one executor per environment
// (executors are not shareable across goroutines; the database, stats,
// and environments are read-only under execution). Because every task
// carries its own noise sequence and results land in index-addressed
// slots, the output is bit-identical at any worker count. A panic inside
// one task is recovered and fails that task alone (OK: false), so one
// poison query cannot take down a collection or the process running it.
// A panic is an engine bug, not a bad query, so it is never silent: the
// task's result carries it, and the pool logs the count and the first
// panic's value and stack to the standard logger.
func ExecutePool(schema *catalog.Schema, stats *catalog.Stats, db *storage.Database, tasks []PoolTask, workers int) []PoolResult {
	res, _ := ExecutePoolCtx(context.Background(), schema, stats, db, tasks, workers)
	return res
}

// ExecutePoolCtx is ExecutePool with cooperative cancellation: workers
// stop claiming tasks once ctx is cancelled and ExecutePoolCtx returns
// ctx's error together with the partial (index-aligned) results — tasks
// that never ran read as not-OK.
func ExecutePoolCtx(ctx context.Context, schema *catalog.Schema, stats *catalog.Stats, db *storage.Database, tasks []PoolTask, workers int) ([]PoolResult, error) {
	type envState struct {
		pl *planner.Planner
		ex *Executor
	}
	w := parallel.Workers(workers)
	states := make([]map[int]*envState, w)
	results := make([]PoolResult, len(tasks))
	err := parallel.ForEachWorkerCtx(ctx, len(tasks), w, func(worker, ti int) {
		// results[ti] is marked OK only on success, so a recovered panic
		// leaves it not-OK. Planners and executors hold no per-query
		// state, so the worker's cached ones stay usable.
		defer func() {
			if r := recover(); r != nil {
				results[ti].Panic = &parallel.WorkerPanic{Value: r, Stack: debug.Stack()}
			}
		}()
		t := tasks[ti]
		if states[worker] == nil {
			states[worker] = make(map[int]*envState)
		}
		st := states[worker][t.Env.ID]
		if st == nil {
			st = &envState{pl: planner.New(schema, stats, t.Env.Knobs), ex: New(db, t.Env)}
			states[worker][t.Env.ID] = st
		}
		q, err := sqlparse.Parse(t.SQL)
		if err != nil {
			return
		}
		node, err := st.pl.Plan(q)
		if err != nil {
			return
		}
		res, err := st.ex.ExecuteSeq(node, t.Seq)
		if err != nil {
			return
		}
		results[ti] = PoolResult{Node: node, Ms: res.TotalMs, OK: true}
	})
	logPanics(results)
	return results, err
}

// logPanics reports the tasks of one pool that panicked: how many, and
// the first one's value and stack.
func logPanics(results []PoolResult) {
	var first *parallel.WorkerPanic
	n := 0
	for _, r := range results {
		if r.Panic != nil {
			if first == nil {
				first = r.Panic
			}
			n++
		}
	}
	if n > 0 {
		log.Printf("engine: %d of %d labeling tasks panicked and count as failed queries; first: %v", n, len(results), first)
	}
}
