package qppnet

import (
	"testing"

	"repro/internal/encoding"
	"repro/internal/planner"
)

// TestPredictFeaturizedBatchBitIdentical asserts the feature-tier
// inference path (skeletons built from the cached post-order shape and
// vectors, the query cache's hit path — no plan tree) equals the batched
// path and the per-sample tree recursion bit for bit, across chunk
// boundaries and multi-level, bushy trees.
func TestPredictFeaturizedBatchBitIdentical(t *testing.T) {
	f := testFeaturizer()
	m := New(f, 1)
	plans, ms := synthPlans(700, 2) // several inference chunks
	m.Train(plans[:80], ms[:80], 40)
	plans = append(plans, bushyPlan())
	fps := make([]*encoding.FeaturizedPlan, len(plans))
	for i, p := range plans {
		fps[i] = f.Featurize(p)
		if fps[i].Root != nil {
			t.Fatalf("plan %d: featurized plan retains the planner tree", i)
		}
	}
	got := m.PredictFeaturizedBatch(fps)
	want := m.PredictBatch(plans)
	for i, p := range plans {
		if got[i] != want[i] {
			t.Fatalf("plan %d: PredictFeaturizedBatch %v != PredictBatch %v", i, got[i], want[i])
		}
		if s := m.PredictMs(p); got[i] != s {
			t.Fatalf("plan %d: PredictFeaturizedBatch %v != PredictMs %v", i, got[i], s)
		}
	}
	if out := m.PredictFeaturizedBatch(nil); out != nil {
		t.Fatalf("empty batch should return nil")
	}
}

// TestPredictBatchBitIdentical asserts the level-batched inference path
// equals the per-sample tree recursion bit for bit, including after
// training (plans here mix single-node trees and two-scan hash joins, so
// several levels and shared operator subnetworks are exercised).
func TestPredictBatchBitIdentical(t *testing.T) {
	m := New(testFeaturizer(), 1)
	plans, ms := synthPlans(80, 2)
	m.Train(plans, ms, 60)
	batch := m.PredictBatch(plans)
	if len(batch) != len(plans) {
		t.Fatalf("batch size = %d, want %d", len(batch), len(plans))
	}
	for i, p := range plans {
		if s := m.PredictMs(p); batch[i] != s {
			t.Fatalf("plan %d: PredictBatch %v != PredictMs %v", i, batch[i], s)
		}
	}
	if out := m.PredictBatch(nil); out != nil {
		t.Fatalf("empty batch should return nil")
	}
}

// TestPredictBatchChunking drives a workload larger than one inference
// chunk and requires bit-identity across the chunk boundaries.
func TestPredictBatchChunking(t *testing.T) {
	m := New(testFeaturizer(), 9)
	plans, _ := synthPlans(700, 11) // ~1400 nodes → several chunks
	batch := m.PredictBatch(plans)
	for i, p := range plans {
		if s := m.PredictMs(p); batch[i] != s {
			t.Fatalf("plan %d: chunked PredictBatch %v != PredictMs %v", i, batch[i], s)
		}
	}
}

// TestPredictBatchDeepTree exercises a chain where the same operator type
// appears at several levels of one plan — the case that forces level-wise
// scheduling (a node's input needs its child's output).
func TestPredictBatchDeepTree(t *testing.T) {
	m := New(testFeaturizer(), 3)
	scan := &planner.Node{Op: planner.SeqScan, Table: "t", EstRows: 1000, EstIn1: 1000, EstWidth: 16, Limit: -1}
	inner := &planner.Node{Op: planner.Materialize, Children: []*planner.Node{scan}, EstRows: 1000, EstIn1: 1000, EstWidth: 16, Limit: -1}
	outer := &planner.Node{Op: planner.Materialize, Children: []*planner.Node{inner}, EstRows: 1000, EstIn1: 1000, EstWidth: 16, Limit: -1}
	got := m.PredictBatch([]*planner.Node{outer, scan})
	if got[0] != m.PredictMs(outer) || got[1] != m.PredictMs(scan) {
		t.Fatalf("deep-tree batch diverged: %v vs %v / %v", got, m.PredictMs(outer), m.PredictMs(scan))
	}
}

// bushyPlan is a three-level plan whose root joins two subtrees of
// different depths, one holding an operator that also appears at
// another level — the shape a post-order rebuild must get exactly right.
func bushyPlan() *planner.Node {
	leaf := func(rows float64) *planner.Node {
		return &planner.Node{Op: planner.SeqScan, Table: "t", EstRows: rows, EstIn1: rows, EstWidth: 16, Limit: -1}
	}
	join := &planner.Node{Op: planner.HashJoin, Children: []*planner.Node{leaf(500), leaf(70)},
		EstRows: 500, EstIn1: 500, EstIn2: 70, EstWidth: 32, Limit: -1}
	sort := &planner.Node{Op: planner.Sort, Children: []*planner.Node{leaf(900)}, EstRows: 900, EstIn1: 900, EstWidth: 16, Limit: -1}
	return &planner.Node{Op: planner.HashJoin, Children: []*planner.Node{join, sort},
		EstRows: 800, EstIn1: 500, EstIn2: 900, EstWidth: 48, Limit: -1}
}

// weightsEqual compares two models' parameters bitwise.
func weightsEqual(t *testing.T, a, b *Model, label string) {
	t.Helper()
	for _, op := range planner.AllOpTypes() {
		an, bn := a.Nets[op], b.Nets[op]
		for li := range an.Layers {
			for i, w := range an.Layers[li].W {
				if w != bn.Layers[li].W[i] {
					t.Fatalf("%s: op %v layer %d W[%d]: %v != %v", label, op, li, i, w, bn.Layers[li].W[i])
				}
			}
			for i, v := range an.Layers[li].B {
				if v != bn.Layers[li].B[i] {
					t.Fatalf("%s: op %v layer %d B[%d] differs", label, op, li, i)
				}
			}
		}
	}
}

// TestTrainMatchesReference trains two identically seeded models — one on
// the batched minibatch path, one on the per-sample reference path — and
// requires bit-identical weight trajectories, at batch size 1 (the
// per-sample seed trajectory) and at the default batch size.
func TestTrainMatchesReference(t *testing.T) {
	plans, ms := synthPlans(120, 7)
	for _, bs := range []int{1, 0 /* default */} {
		batched := New(testFeaturizer(), 5)
		reference := New(testFeaturizer(), 5)
		batched.BatchSize = bs
		reference.BatchSize = bs
		batched.Train(plans, ms, 40)
		reference.TrainReference(plans, ms, 40)
		weightsEqual(t, batched, reference, "after training")
		batched.Train(plans, ms, 5)
		reference.TrainReference(plans, ms, 5)
		weightsEqual(t, batched, reference, "after resumed training")
	}
}
