package engine

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/storage"
)

// syntheticDB builds a one-off database from the given tables and rows,
// for tests that need exact control over key distributions.
func syntheticDB(tables map[*catalog.Table][]catalog.Row) *storage.Database {
	s := catalog.NewSchema("synthetic")
	for t := range tables {
		s.AddTable(t)
	}
	db := storage.NewDatabase(s)
	for t, rows := range tables {
		for _, r := range rows {
			db.Heap(t.Name).Append(r)
		}
	}
	return db
}

func scanNode(table string) *planner.Node {
	return &planner.Node{Op: planner.SeqScan, Table: table, EstWidth: 16}
}

// TestSortMatchesStableReference: execSort must order rows exactly as a
// stable sort does — same rows, same order, ties in input order — over
// duplicate-heavy keys, NULLs, string and int columns, and multi-column
// keys with mixed directions.
func TestSortMatchesStableReference(t *testing.T) {
	tbl := catalog.NewTable("t",
		catalog.Column{Name: "id", Type: catalog.IntCol, Width: 8},
		catalog.Column{Name: "a", Type: catalog.IntCol, Width: 8},
		catalog.Column{Name: "s", Type: catalog.StringCol, Width: 8},
		catalog.Column{Name: "b", Type: catalog.IntCol, Width: 8},
	)
	rng := rand.New(rand.NewSource(3))
	words := []string{"", "a", "ab", "b", "ba"}
	rows := make([]catalog.Row, 5000)
	for i := range rows {
		a := catalog.IntVal(int64(rng.Intn(6) - 2))
		if rng.Intn(10) == 0 {
			a = catalog.NullVal()
		}
		s := catalog.StrVal(words[rng.Intn(len(words))])
		if rng.Intn(12) == 0 {
			s = catalog.NullVal()
		}
		rows[i] = catalog.Row{catalog.IntVal(int64(i)), a, s, catalog.IntVal(int64(rng.Intn(3)))}
	}
	ex := New(syntheticDB(map[*catalog.Table][]catalog.Row{tbl: rows}), quietEnv())

	for _, key := range []struct {
		cols []int
		desc []bool
	}{
		{[]int{1}, []bool{false}},
		{[]int{1}, []bool{true}},
		{[]int{2}, []bool{true}},
		{[]int{1, 2}, []bool{true, false}},
		{[]int{2, 3, 1}, []bool{false, true, false}},
		{[]int{3, 2}, []bool{true, true}},
	} {
		want := append([]catalog.Row(nil), rows...)
		sort.SliceStable(want, func(i, j int) bool {
			for k, c := range key.cols {
				cmp := want[i][c].Compare(want[j][c])
				if cmp == 0 {
					continue
				}
				if key.desc[k] {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		n := &planner.Node{Op: planner.Sort, SortCols: key.cols, SortDesc: key.desc, EstWidth: 32,
			Children: []*planner.Node{scanNode("t")}}
		got, err := ex.exec(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("cols %v desc %v: %d rows, want %d", key.cols, key.desc, len(got), len(want))
		}
		for i := range want {
			if got[i][0] != want[i][0] {
				t.Fatalf("cols %v desc %v: row %d is id %v, want id %v", key.cols, key.desc, i, got[i][0], want[i][0])
			}
		}
	}
}

// joinTables returns two key-sorted tables whose equi-join on column 0
// emits 12000 rows: left has 12 rows per key, right 2, over 500 keys, and
// each side leads with NULL keys that must never match.
func joinTables() (map[*catalog.Table][]catalog.Row, int) {
	l := catalog.NewTable("l",
		catalog.Column{Name: "k", Type: catalog.IntCol, Width: 8},
		catalog.Column{Name: "v", Type: catalog.StringCol, Width: 8},
		catalog.Column{Name: "id", Type: catalog.IntCol, Width: 8})
	r := catalog.NewTable("r",
		catalog.Column{Name: "k", Type: catalog.IntCol, Width: 8},
		catalog.Column{Name: "id", Type: catalog.IntCol, Width: 8})
	var lrows, rrows []catalog.Row
	for i := 0; i < 3; i++ {
		lrows = append(lrows, catalog.Row{catalog.NullVal(), catalog.StrVal("null"), catalog.IntVal(-1)})
		rrows = append(rrows, catalog.Row{catalog.NullVal(), catalog.IntVal(-1)})
	}
	for i := 0; i < 6000; i++ {
		lrows = append(lrows, catalog.Row{catalog.IntVal(int64(i / 12)), catalog.StrVal("x"), catalog.IntVal(int64(i))})
	}
	for i := 0; i < 1000; i++ {
		rrows = append(rrows, catalog.Row{catalog.IntVal(int64(i / 2)), catalog.IntVal(int64(i))})
	}
	return map[*catalog.Table][]catalog.Row{l: lrows, r: rrows}, 500 * 12 * 2
}

func joinNode(op planner.Op) *planner.Node {
	return &planner.Node{Op: op, EstWidth: 40, Children: []*planner.Node{scanNode("l"), scanNode("r")}}
}

var joinOps = []planner.Op{planner.HashJoin, planner.MergeJoin, planner.NestedLoop}

// TestJoinsMatchNaiveReference: every join method emits exactly the rows
// of a naive nested loop over the inputs, in the same order.
func TestJoinsMatchNaiveReference(t *testing.T) {
	tables, wantRows := joinTables()
	db := syntheticDB(tables)
	var want []catalog.Row
	lh, rh := db.Heap("l"), db.Heap("r")
	for i := 0; i < lh.NumRows(); i++ {
		for j := 0; j < rh.NumRows(); j++ {
			l, r := lh.Get(i), rh.Get(j)
			if !l[0].Null && !r[0].Null && l[0] == r[0] {
				want = append(want, append(append(catalog.Row{}, l...), r...))
			}
		}
	}
	if len(want) != wantRows {
		t.Fatalf("reference has %d rows, want %d", len(want), wantRows)
	}
	ex := New(db, quietEnv())
	for _, op := range joinOps {
		got, err := ex.exec(joinNode(op))
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows, want %d", op, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) || cap(got[i]) != len(got[i]) {
				t.Fatalf("%v: row %d has len %d cap %d, want len and cap %d", op, i, len(got[i]), cap(got[i]), len(want[i]))
			}
			for c := range want[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("%v: row %d = %v, want %v", op, i, got[i], want[i])
				}
			}
		}
		// Rows share backing chunks; appending to one must not write into
		// its neighbour.
		grown := append(got[0], catalog.IntVal(-99))
		if grown[len(grown)-1] != catalog.IntVal(-99) || got[1][0] != want[1][0] {
			t.Fatalf("%v: append to row 0 overwrote row 1", op)
		}
	}
}

// TestJoinAllocsBounded: hash, merge and nested-loop joins allocate per
// chunk of output rows, not per output row.
func TestJoinAllocsBounded(t *testing.T) {
	tables, wantRows := joinTables()
	ex := New(syntheticDB(tables), quietEnv())
	for _, op := range joinOps {
		n := joinNode(op)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ex.exec(n); err != nil {
				t.Fatal(err)
			}
		})
		if n.ActualRows != int64(wantRows) {
			t.Fatalf("%v: %d rows, want %d", op, n.ActualRows, wantRows)
		}
		if perRow := allocs / float64(wantRows); perRow > 0.2 {
			t.Errorf("%v: %.0f allocs for %d output rows (%.3f per row), want at most 0.2 per row",
				op, allocs, wantRows, perRow)
		}
	}
}
