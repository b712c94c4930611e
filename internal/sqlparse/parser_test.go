package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/catalog"
)

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse("SELECT * FROM orders WHERE o_totalprice > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Select[0].Star {
		t.Fatalf("expected star select")
	}
	if len(q.Tables) != 1 || q.Tables[0].Name != "orders" {
		t.Fatalf("tables = %v", q.Tables)
	}
	if len(q.Preds) != 1 || q.Preds[0].Op != OpGt || q.Preds[0].Args[0].I != 1000 {
		t.Fatalf("preds = %v", q.Preds)
	}
	if q.Limit != -1 {
		t.Fatalf("limit = %d", q.Limit)
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	q, err := Parse("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 24 GROUP BY l_returnflag ORDER BY l_returnflag")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Agg != AggCount || q.Select[0].Col.Column != "" {
		t.Fatalf("first item = %+v", q.Select[0])
	}
	if q.Select[1].Agg != AggSum || q.Select[1].Col.Column != "l_extendedprice" {
		t.Fatalf("second item = %+v", q.Select[1])
	}
	if len(q.GroupBy) != 1 || len(q.OrderBy) != 1 {
		t.Fatalf("group/order = %v / %v", q.GroupBy, q.OrderBy)
	}
}

func TestParseExplicitJoin(t *testing.T) {
	q, err := Parse("SELECT * FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey WHERE o_totalprice >= 5 ORDER BY orders.o_orderdate DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 2 || len(q.Joins) != 1 {
		t.Fatalf("tables=%v joins=%v", q.Tables, q.Joins)
	}
	j := q.Joins[0]
	if j.Left.String() != "orders.o_orderkey" || j.Right.String() != "lineitem.l_orderkey" {
		t.Fatalf("join = %v", j)
	}
	if !q.OrderBy[0].Desc {
		t.Fatalf("expected DESC")
	}
	if q.Limit != 10 {
		t.Fatalf("limit = %d", q.Limit)
	}
}

func TestParseChainedJoins(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y WHERE a.z = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 3 || len(q.Joins) != 2 || len(q.Preds) != 1 {
		t.Fatalf("tables=%d joins=%d preds=%d", len(q.Tables), len(q.Joins), len(q.Preds))
	}
}

func TestParseImplicitJoinWithAliases(t *testing.T) {
	// job-light style.
	q, err := Parse("SELECT COUNT(*) FROM title t, movie_info mi WHERE t.id = mi.movie_id AND t.production_year > 2005")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 2 {
		t.Fatalf("tables = %v", q.Tables)
	}
	if q.Tables[0].Alias != "t" || q.Tables[1].Alias != "mi" {
		t.Fatalf("aliases = %v", q.Tables)
	}
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %v (implicit join not detected)", q.Joins)
	}
	if len(q.Preds) != 1 || q.Preds[0].Col.Table != "t" {
		t.Fatalf("preds = %v", q.Preds)
	}
}

func TestParseInBetweenLike(t *testing.T) {
	q, err := Parse("SELECT * FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 10 AND 20 AND c LIKE 'abc%' AND d <> 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 4 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	if q.Preds[0].Op != OpIn || len(q.Preds[0].Args) != 3 {
		t.Fatalf("IN parsed wrong: %v", q.Preds[0])
	}
	if q.Preds[1].Op != OpBetween || q.Preds[1].Args[1].I != 20 {
		t.Fatalf("BETWEEN parsed wrong: %v", q.Preds[1])
	}
	if q.Preds[2].Op != OpLike || q.Preds[2].Args[0].S != "abc%" {
		t.Fatalf("LIKE parsed wrong: %v", q.Preds[2])
	}
	if q.Preds[3].Op != OpNe {
		t.Fatalf("<> parsed wrong: %v", q.Preds[3])
	}
}

func TestParseStringEscapes(t *testing.T) {
	q, err := Parse("SELECT * FROM t WHERE s = 'O''Brien'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Args[0].S != "O'Brien" {
		t.Fatalf("escape = %q", q.Preds[0].Args[0].S)
	}
}

func TestParseNegativeAndFloatLiterals(t *testing.T) {
	q, err := Parse("SELECT * FROM t WHERE a > -5 AND b < 3.14")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Args[0].I != -5 {
		t.Fatalf("negative literal = %v", q.Preds[0].Args[0])
	}
	if q.Preds[1].Args[0].I != 314 {
		t.Fatalf("float literal = %v (scaled)", q.Preds[1].Args[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a >",
		"SELECT * FROM t WHERE a BETWEEN 1",
		"SELECT * FROM t WHERE s = 'unterminated",
		"SELECT * FROM t GROUP",
		"SELECT * FROM a JOIN b",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t WHERE a = 1 garbage",
		"SELECT * FROM t WHERE a.b < c.d",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", sql)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustParse("not sql")
}

func testSchema() *catalog.Schema {
	s := catalog.NewSchema("test")
	s.AddTable(catalog.NewTable("orders",
		catalog.Column{Name: "o_orderkey", Type: catalog.IntCol, Width: 8},
		catalog.Column{Name: "o_totalprice", Type: catalog.FloatCol, Width: 8},
	))
	s.AddTable(catalog.NewTable("lineitem",
		catalog.Column{Name: "l_orderkey", Type: catalog.IntCol, Width: 8},
		catalog.Column{Name: "l_quantity", Type: catalog.IntCol, Width: 8},
	))
	return s
}

func TestResolveAliasesAndUnqualified(t *testing.T) {
	s := testSchema()
	q := MustParse("SELECT COUNT(*) FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_totalprice > 100 AND l_quantity < 5")
	if err := q.Resolve(s); err != nil {
		t.Fatal(err)
	}
	if q.Joins[0].Left.Table != "orders" || q.Joins[0].Right.Table != "lineitem" {
		t.Fatalf("join resolution: %v", q.Joins[0])
	}
	if q.Preds[0].Col.Table != "orders" || q.Preds[1].Col.Table != "lineitem" {
		t.Fatalf("pred resolution: %v", q.Preds)
	}
}

func TestResolveErrors(t *testing.T) {
	s := testSchema()
	cases := []string{
		"SELECT * FROM ghost",
		"SELECT * FROM orders WHERE ghost_col = 1",
		"SELECT * FROM orders WHERE x.o_orderkey = 1",
		"SELECT * FROM orders o WHERE o.nope = 1",
		// A qualifier naming a schema table that is missing from FROM.
		"SELECT COUNT(*)FROM region,supplier WHERE nation.n_nationkey=supplier.s_nationkey",
		"SELECT COUNT(*) FROM orders WHERE lineitem.l_orderkey = orders.o_orderkey",
	}
	for _, sql := range cases {
		q, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if err := q.Resolve(s); err == nil {
			t.Errorf("Resolve(%q) should fail", sql)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT * FROM t WHERE a = 1",
		"SELECT COUNT(*) FROM a, b WHERE a.x = b.y AND a.z IN (1, 2)",
		"SELECT SUM(v) FROM t WHERE a BETWEEN 1 AND 5 GROUP BY g ORDER BY g DESC LIMIT 3",
		"SELECT * FROM t WHERE s LIKE 'x%'",
	}
	for _, sql := range queries {
		q1 := MustParse(sql)
		rendered := q1.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", rendered, sql, err)
		}
		if q2.String() != rendered {
			t.Errorf("round trip unstable:\n  1: %s\n  2: %s", rendered, q2.String())
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select count(*) from t where a between 1 and 2 order by a desc")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 1 || !q.OrderBy[0].Desc {
		t.Fatalf("case-insensitive parse wrong: %+v", q)
	}
}

func TestPredicateString(t *testing.T) {
	p := Predicate{Col: ColRef{Table: "t", Column: "c"}, Op: OpIn, Args: []catalog.Value{catalog.IntVal(1), catalog.StrVal("a'b")}}
	got := p.String()
	if !strings.Contains(got, "IN (1, 'a''b')") {
		t.Fatalf("Predicate.String = %q", got)
	}
}
