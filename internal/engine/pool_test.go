package engine

import (
	"bytes"
	"log"
	"strings"
	"testing"

	"repro/internal/dbenv"
)

// TestExecutePoolContainsPanic: a task that panics (here on a nil
// environment) fails alone as not-OK; the tasks around it still label,
// bit-identically to a pool without it, at any worker count. The panic
// stays visible: its result carries the value and stack, and the pool
// logs it.
func TestExecutePoolContainsPanic(t *testing.T) {
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)

	env := dbenv.Default()
	good := []PoolTask{
		{Env: env, Seq: 1, SQL: "SELECT COUNT(*) FROM orders WHERE o_totalprice > 300000"},
		{Env: env, Seq: 2, SQL: "SELECT * FROM orders WHERE o_orderkey = 42"},
	}
	want := ExecutePool(tpch.Schema, tpch.Stats, tpch.DB, good, 1)
	tasks := []PoolTask{good[0], {Env: nil, Seq: 9, SQL: good[0].SQL}, good[1]}
	for _, workers := range []int{1, 2} {
		got := ExecutePool(tpch.Schema, tpch.Stats, tpch.DB, tasks, workers)
		if got[1].OK || got[1].Node != nil {
			t.Fatalf("workers=%d: panicking task reads %+v, want not-OK", workers, got[1])
		}
		if p := got[1].Panic; p == nil || p.Value == nil || !strings.Contains(string(p.Stack), "engine.ExecutePoolCtx") {
			t.Fatalf("workers=%d: panicking task's result carries panic %v, want its value and stack", workers, p)
		}
		if got[0].Panic != nil || got[2].Panic != nil {
			t.Fatalf("workers=%d: tasks that did not panic carry panics %v, %v", workers, got[0].Panic, got[2].Panic)
		}
		if msg := logged.String(); !strings.Contains(msg, "1 of 3 labeling tasks panicked") || !strings.Contains(msg, "nil pointer") {
			t.Fatalf("workers=%d: pool logged %q, want the panic count and value", workers, msg)
		}
		logged.Reset()
		for i, j := range []int{0, 2} {
			if !got[j].OK || got[j].Ms != want[i].Ms {
				t.Fatalf("workers=%d: task %d = %+v, want OK with %v ms", workers, j, got[j], want[i].Ms)
			}
		}
	}
}
