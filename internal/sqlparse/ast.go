package sqlparse

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// ColRef names a column, optionally qualified. Table holds the alias as
// written; Resolve rewrites it to the real table name.
type ColRef struct {
	Table  string
	Column string
}

// String renders the reference in SQL form.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// AggFunc enumerates the aggregate functions the engine supports.
type AggFunc string

// Supported aggregates.
const (
	AggNone  AggFunc = ""
	AggCount AggFunc = "count"
	AggSum   AggFunc = "sum"
	AggAvg   AggFunc = "avg"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
)

// SelectItem is one output column: a star, a plain column, or an aggregate.
type SelectItem struct {
	Star bool
	Agg  AggFunc // AggNone for plain columns
	Col  ColRef  // empty for COUNT(*)
}

// TableRef is one FROM-clause entry.
type TableRef struct {
	Name  string
	Alias string // equals Name when no alias given
}

// JoinCond is one equi-join predicate left = right.
type JoinCond struct {
	Left, Right ColRef
}

// CmpOp enumerates predicate comparison operators. The keyword set matches
// the paper's Table II ("">, like, =, <, in, etc.").
type CmpOp string

// Supported comparison operators.
const (
	OpEq      CmpOp = "="
	OpNe      CmpOp = "<>"
	OpLt      CmpOp = "<"
	OpGt      CmpOp = ">"
	OpLe      CmpOp = "<="
	OpGe      CmpOp = ">="
	OpLike    CmpOp = "like"
	OpIn      CmpOp = "in"
	OpBetween CmpOp = "between"
)

// AllOps lists every comparison operator; Algorithm 1 draws random
// operators from this set when instantiating simplified templates.
var AllOps = []CmpOp{OpEq, OpNe, OpLt, OpGt, OpLe, OpGe, OpIn, OpBetween}

// Predicate is one conjunct of the WHERE clause: Col Op Args. BETWEEN
// carries two args, IN carries one or more, the rest exactly one.
type Predicate struct {
	Col  ColRef
	Op   CmpOp
	Args []catalog.Value
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

// Query is the parsed AST of one SELECT statement.
type Query struct {
	Select  []SelectItem
	Tables  []TableRef
	Joins   []JoinCond
	Preds   []Predicate
	GroupBy []ColRef
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

// AliasMap returns alias → table name for every FROM entry.
func (q *Query) AliasMap() map[string]string {
	m := make(map[string]string, len(q.Tables))
	for _, t := range q.Tables {
		m[t.Alias] = t.Name
	}
	return m
}

// Resolve rewrites every ColRef against the schema: aliases are replaced by
// real table names and unqualified columns are bound to the unique table
// containing them. It returns an error for unknown tables/columns,
// qualifiers naming a table that is not in FROM, and ambiguous
// unqualified references.
func (q *Query) Resolve(s *catalog.Schema) error {
	aliases := q.AliasMap()
	inFrom := make(map[string]bool, len(q.Tables))
	for i := range q.Tables {
		if s.Table(q.Tables[i].Name) == nil {
			return fmt.Errorf("sqlparse: unknown table %q", q.Tables[i].Name)
		}
		inFrom[q.Tables[i].Name] = true
	}
	fix := func(c *ColRef) error {
		if c.Table != "" {
			real, ok := aliases[c.Table]
			if !ok {
				// Maybe a FROM table's real name used directly (it was
				// given an alias). Any other schema table is not part of
				// the query: planning it would join a table with no scan.
				if !inFrom[c.Table] {
					return fmt.Errorf("sqlparse: unknown alias %q", c.Table)
				}
				real = c.Table
			}
			c.Table = real
			if s.Table(real).ColIndex(c.Column) < 0 {
				return fmt.Errorf("sqlparse: unknown column %s.%s", real, c.Column)
			}
			return nil
		}
		var owner string
		for _, t := range q.Tables {
			if s.Table(t.Name).ColIndex(c.Column) >= 0 {
				if owner != "" && owner != t.Name {
					return fmt.Errorf("sqlparse: ambiguous column %q", c.Column)
				}
				owner = t.Name
			}
		}
		if owner == "" {
			return fmt.Errorf("sqlparse: unknown column %q", c.Column)
		}
		c.Table = owner
		return nil
	}
	for i := range q.Select {
		if !q.Select[i].Star && !(q.Select[i].Agg == AggCount && q.Select[i].Col.Column == "") {
			if err := fix(&q.Select[i].Col); err != nil {
				return err
			}
		}
	}
	for i := range q.Joins {
		if err := fix(&q.Joins[i].Left); err != nil {
			return err
		}
		if err := fix(&q.Joins[i].Right); err != nil {
			return err
		}
	}
	for i := range q.Preds {
		if err := fix(&q.Preds[i].Col); err != nil {
			return err
		}
	}
	for i := range q.GroupBy {
		if err := fix(&q.GroupBy[i]); err != nil {
			return err
		}
	}
	for i := range q.OrderBy {
		if err := fix(&q.OrderBy[i].Col); err != nil {
			return err
		}
	}
	return nil
}

// String re-renders the query as SQL (used by workload generators to emit
// query text and by tests to round-trip).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, s := range q.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case s.Star:
			sb.WriteString("*")
		case s.Agg == AggCount && s.Col.Column == "":
			sb.WriteString("COUNT(*)")
		case s.Agg != AggNone:
			fmt.Fprintf(&sb, "%s(%s)", strings.ToUpper(string(s.Agg)), s.Col)
		default:
			sb.WriteString(s.Col.String())
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range q.Tables {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Name)
		if t.Alias != t.Name {
			sb.WriteString(" " + t.Alias)
		}
	}
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, fmt.Sprintf("%s = %s", j.Left, j.Right))
	}
	for _, p := range q.Preds {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		sb.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		cols := make([]string, len(q.GroupBy))
		for i, c := range q.GroupBy {
			cols[i] = c.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(cols, ", "))
	}
	if len(q.OrderBy) > 0 {
		cols := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			cols[i] = o.Col.String()
			if o.Desc {
				cols[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(cols, ", "))
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}

// String renders one predicate as SQL.
func (p Predicate) String() string {
	lit := func(v catalog.Value) string {
		if v.IsStr {
			return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
		}
		return v.String()
	}
	switch p.Op {
	case OpBetween:
		return fmt.Sprintf("%s BETWEEN %s AND %s", p.Col, lit(p.Args[0]), lit(p.Args[1]))
	case OpIn:
		parts := make([]string, len(p.Args))
		for i, a := range p.Args {
			parts[i] = lit(a)
		}
		return fmt.Sprintf("%s IN (%s)", p.Col, strings.Join(parts, ", "))
	case OpLike:
		return fmt.Sprintf("%s LIKE %s", p.Col, lit(p.Args[0]))
	default:
		return fmt.Sprintf("%s %s %s", p.Col, p.Op, lit(p.Args[0]))
	}
}
