package encoding

import (
	"repro/internal/featred"
	"repro/internal/linalg"
	"repro/internal/planner"
	"repro/internal/snapshot"
)

// Featurizer composes the three stages of QCFE's feature pipeline for one
// plan node: the general encoding (always), the feature-snapshot block
// (when a snapshot is attached — the FS of §III), and the feature-reduction
// mask (when attached — the FR of §IV). Models consume nodes exclusively
// through a Featurizer, so plugging QCFE into QPPNet or MSCN is just a
// matter of which fields are set.
type Featurizer struct {
	Enc *Encoder
	// Snaps maps environment ID → that environment's feature snapshot.
	// Nodes select their snapshot through their EnvID tag. nil disables
	// the snapshot block entirely (the "general FE" baseline).
	Snaps map[int]*snapshot.Snapshot
	Mask  []bool // optional; length must equal RawDim
}

// RawDim is the unmasked feature width (encoding + snapshot block).
func (f *Featurizer) RawDim() int {
	d := f.Enc.Dim()
	if f.Snaps != nil {
		d += snapshot.FeatureDim
	}
	return d
}

// Dim is the final model input width after masking.
func (f *Featurizer) Dim() int {
	if f.Mask == nil {
		return f.RawDim()
	}
	return featred.CountKept(f.Mask)
}

// Raw returns the unmasked feature vector for one node.
func (f *Featurizer) Raw(n *planner.Node) []float64 {
	v := f.Enc.EncodeNode(n)
	if f.Snaps != nil {
		if s := f.Snaps[n.EnvID]; s != nil {
			v = append(v, s.Features(n)...)
		} else {
			v = append(v, make([]float64, snapshot.FeatureDim)...)
		}
	}
	return v
}

// Node returns the final (masked) feature vector for one node.
func (f *Featurizer) Node(n *planner.Node) []float64 {
	v := f.Raw(n)
	if f.Mask != nil {
		return featred.Apply(f.Mask, v)
	}
	return v
}

// NodeInto featurizes one node directly into dst (length Dim), masking
// in place — the allocation-lean form of Node for matrix gathers.
func (f *Featurizer) NodeInto(n *planner.Node, dst []float64) {
	v := f.Raw(n)
	if f.Mask != nil {
		featred.ApplyInto(f.Mask, v, dst)
		return
	}
	copy(dst, v)
}

// NodesMatrix featurizes a node list into one row-major matrix (row i =
// Node(nodes[i])) — the gather step of the batched inference paths.
func (f *Featurizer) NodesMatrix(nodes []*planner.Node) *linalg.Matrix {
	m := linalg.NewMatrix(len(nodes), f.Dim())
	for i, n := range nodes {
		f.NodeInto(n, m.RowView(i))
	}
	return m
}

// PlanMatrix featurizes every node of a plan in pre-order (Walk order)
// into one row-major matrix. Row order matches the per-sample traversal,
// which is what keeps batched set-pooling bit-identical to the scalar
// path.
func (f *Featurizer) PlanMatrix(root *planner.Node) *linalg.Matrix {
	rows := make([][]float64, 0, root.CountNodes())
	root.Walk(func(n *planner.Node) { rows = append(rows, f.Node(n)) })
	return linalg.FromRows(rows)
}

// FeaturizedPlan is one plan with its per-node feature vectors computed
// once and kept — the value the query cache's feature tier stores. The
// two orders index the same underlying vectors: Pre is Walk (pre-order),
// the gather order of MSCN's set pooling; Post is children-first
// post-order, the order QPPNet's skeleton builder consumes, and Shape is
// the plan's structure in that same order. A learned model reads only
// these, so the value does not retain the planner tree: Root is set only
// for the analytic baseline, which prices the tree itself and carries no
// rows. Entries are shared across concurrent readers and must be treated
// as immutable.
type FeaturizedPlan struct {
	Root  *planner.Node
	Pre   [][]float64
	Post  [][]float64
	Shape []ShapeNode
}

// ShapeNode is one plan node's structure: its operator and how many
// children it has. A post-order list of them (see PostOrderShape) is the
// whole tree shape — each node's children are the NumChildren subtrees
// that end right before it.
type ShapeNode struct {
	Op          planner.OpType
	NumChildren int
}

// NumNodes returns the plan size (the chunking unit of the batched
// inference paths).
func (fp *FeaturizedPlan) NumNodes() int { return len(fp.Pre) }

// PostOrderShape lists a plan's nodes children-first, in child order —
// the order of FeaturizedPlan.Post.
func PostOrderShape(root *planner.Node) []ShapeNode {
	out := make([]ShapeNode, 0, root.CountNodes())
	var rec func(nd *planner.Node)
	rec = func(nd *planner.Node) {
		for _, c := range nd.Children {
			rec(c)
		}
		out = append(out, ShapeNode{Op: nd.Op, NumChildren: len(nd.Children)})
	}
	rec(root)
	return out
}

// Featurize computes a plan's full featurization (masked, snapshot block
// included) once, in both traversal orders, plus its post-order shape.
// Each vector is the same slice in Pre and Post — Featurize costs one
// Node() call per plan node, exactly like one scalar prediction's
// featurization.
func (f *Featurizer) Featurize(root *planner.Node) *FeaturizedPlan {
	n := root.CountNodes()
	fp := &FeaturizedPlan{
		Pre:   make([][]float64, 0, n),
		Post:  make([][]float64, 0, n),
		Shape: PostOrderShape(root),
	}
	// Pre-order positions, recorded while featurizing...
	byNode := make(map[*planner.Node][]float64, n)
	root.Walk(func(nd *planner.Node) {
		v := f.Node(nd)
		fp.Pre = append(fp.Pre, v)
		byNode[nd] = v
	})
	// ...then re-read in post-order, sharing the vectors.
	var rec func(nd *planner.Node)
	rec = func(nd *planner.Node) {
		for _, c := range nd.Children {
			rec(c)
		}
		fp.Post = append(fp.Post, byNode[nd])
	}
	rec(root)
	return fp
}

// Names labels the raw feature dimensions.
func (f *Featurizer) Names() []string {
	names := f.Enc.FeatureNames()
	if f.Snaps != nil {
		names = append(names, snapshot.FeatureNames()...)
	}
	return names
}
