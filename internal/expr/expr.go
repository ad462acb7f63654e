// Package expr defines the expression tree evaluated by the query engine:
// column references, constants, arithmetic, comparisons, boolean logic,
// LIKE/IN/BETWEEN predicates and CASE expressions. The same trees are used
// by the planner for pushdown analysis (which columns does a predicate
// touch?) and by the in-situ scan for selective parsing decisions.
package expr

import (
	"fmt"
	"strings"

	"nodb/internal/datum"
)

// Expr is a node of an expression tree. Eval computes the node over an
// input row; Columns appends the referenced column ordinals.
type Expr interface {
	Eval(row []datum.Datum) (datum.Datum, error)
	Columns(dst []int) []int
	String() string
}

// ColRef references the i-th column of the input row.
type ColRef struct {
	Index int
	Name  string // for display only
	Type  datum.Type
}

// Eval returns the referenced column value.
func (c *ColRef) Eval(row []datum.Datum) (datum.Datum, error) {
	if c.Index < 0 || c.Index >= len(row) {
		return datum.Datum{}, fmt.Errorf("expr: column ordinal %d out of range (row width %d)", c.Index, len(row))
	}
	return row[c.Index], nil
}

// Columns appends this reference's ordinal.
func (c *ColRef) Columns(dst []int) []int { return append(dst, c.Index) }

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Index)
}

// Const is a literal value.
type Const struct{ D datum.Datum }

// Eval returns the literal.
func (c *Const) Eval([]datum.Datum) (datum.Datum, error) { return c.D, nil }

// Columns returns dst unchanged: literals reference nothing.
func (c *Const) Columns(dst []int) []int { return dst }

func (c *Const) String() string { return c.D.String() }

// Op enumerates binary operators.
type Op uint8

// Binary operators.
const (
	Add Op = iota
	Sub
	Mul
	Div
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	And
	Or
)

var opNames = [...]string{"+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}

func (o Op) String() string { return opNames[o] }

// BinOp applies Op to two subexpressions.
type BinOp struct {
	Op   Op
	L, R Expr
}

// Eval computes the operator with SQL NULL semantics: any NULL operand
// yields NULL, except AND/OR which use three-valued logic shortcuts.
func (b *BinOp) Eval(row []datum.Datum) (datum.Datum, error) {
	if b.Op == And || b.Op == Or {
		return b.evalLogic(row)
	}
	l, err := b.L.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	if l.Null() || r.Null() {
		return datum.NewNull(resultType(b.Op, l, r)), nil
	}
	switch b.Op {
	case Add, Sub, Mul, Div:
		return evalArith(b.Op, l, r)
	default:
		c := datum.Compare(l, r)
		var v bool
		switch b.Op {
		case Eq:
			v = c == 0
		case Ne:
			v = c != 0
		case Lt:
			v = c < 0
		case Le:
			v = c <= 0
		case Gt:
			v = c > 0
		case Ge:
			v = c >= 0
		}
		return datum.NewBool(v), nil
	}
}

func (b *BinOp) evalLogic(row []datum.Datum) (datum.Datum, error) {
	l, err := b.L.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	// Short-circuit per three-valued logic.
	if !l.Null() {
		if b.Op == And && !l.Bool() {
			return datum.NewBool(false), nil
		}
		if b.Op == Or && l.Bool() {
			return datum.NewBool(true), nil
		}
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	if r.Null() {
		if !l.Null() {
			// l is the neutral element here (true for AND, false for OR).
			return datum.NewNull(datum.Bool), nil
		}
		return datum.NewNull(datum.Bool), nil
	}
	if b.Op == And {
		if !r.Bool() {
			return datum.NewBool(false), nil
		}
		if l.Null() {
			return datum.NewNull(datum.Bool), nil
		}
		return datum.NewBool(l.Bool() && r.Bool()), nil
	}
	if r.Bool() {
		return datum.NewBool(true), nil
	}
	if l.Null() {
		return datum.NewNull(datum.Bool), nil
	}
	return datum.NewBool(l.Bool() || r.Bool()), nil
}

func resultType(op Op, l, r datum.Datum) datum.Type {
	switch op {
	case Add, Sub, Mul, Div:
		if l.T == datum.Float || r.T == datum.Float {
			return datum.Float
		}
		return l.T
	default:
		return datum.Bool
	}
}

// evalArith computes an arithmetic operator over two scalar operands with
// the engine's coercion rules: Date ± Int in days, Int ⊙ Int (but
// division) stays Int, anything else through float, division by zero
// errors. The compiled value programs (internal/kernel) mirror it.
func evalArith(op Op, l, r datum.Datum) (datum.Datum, error) {
	// Date ± Int works in days, matching "date '1998-12-01' - 90".
	if l.T == datum.Date && r.T == datum.Int {
		switch op {
		case Add:
			return l.AddDays(r.Int()), nil
		case Sub:
			return l.AddDays(-r.Int()), nil
		}
	}
	if l.T == datum.Int && r.T == datum.Int && op != Div {
		switch op {
		case Add:
			return datum.NewInt(l.Int() + r.Int()), nil
		case Sub:
			return datum.NewInt(l.Int() - r.Int()), nil
		case Mul:
			return datum.NewInt(l.Int() * r.Int()), nil
		}
	}
	lf, rf := l.Float(), r.Float()
	switch op {
	case Add:
		return datum.NewFloat(lf + rf), nil
	case Sub:
		return datum.NewFloat(lf - rf), nil
	case Mul:
		return datum.NewFloat(lf * rf), nil
	case Div:
		if rf == 0 {
			return datum.Datum{}, fmt.Errorf("expr: division by zero")
		}
		return datum.NewFloat(lf / rf), nil
	}
	return datum.Datum{}, fmt.Errorf("expr: bad arithmetic op %v", op)
}

// FoldConst returns the literal an arithmetic node over two literals
// computes ("date '1998-12-01' - 90" becomes one date), or e unchanged. A
// node whose evaluation fails — division by zero — is kept, so the error
// surfaces only when a row reaches it.
func FoldConst(e Expr) Expr {
	b, ok := e.(*BinOp)
	if !ok {
		return e
	}
	switch b.Op {
	case Add, Sub, Mul, Div:
	default:
		return e
	}
	_, lk := b.L.(*Const)
	_, rk := b.R.(*Const)
	if !lk || !rk {
		return e
	}
	d, err := b.Eval(nil)
	if err != nil {
		return e
	}
	return &Const{D: d}
}

// StaticType is the type an expression is planned to produce: the column
// type of a result schema. It follows SQL typing rather than the
// runtime tags of evalArith — any Date operand makes a Date, division or a Float
// operand a Float, CASE takes its first arm's type.
func StaticType(e Expr) datum.Type {
	switch n := e.(type) {
	case *ColRef:
		return n.Type
	case *Const:
		return n.D.T
	case *Slot:
		return datum.Unknown // typed after binding
	case *Kernel:
		return StaticType(n.E)
	case *BinOp:
		switch n.Op {
		case Add, Sub, Mul, Div:
			lt, rt := StaticType(n.L), StaticType(n.R)
			if lt == datum.Date || rt == datum.Date {
				return datum.Date
			}
			if n.Op == Div || lt == datum.Float || rt == datum.Float {
				return datum.Float
			}
			return datum.Int
		default:
			return datum.Bool
		}
	case *Neg:
		return StaticType(n.E)
	case *Case:
		if len(n.Whens) > 0 {
			return StaticType(n.Whens[0].Then)
		}
		if n.Else != nil {
			return StaticType(n.Else)
		}
		return datum.Unknown
	case *Not, *Like, *In, *Between, *IsNull:
		return datum.Bool
	default:
		return datum.Unknown
	}
}

// Columns unions both sides.
func (b *BinOp) Columns(dst []int) []int { return b.R.Columns(b.L.Columns(dst)) }

func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a boolean subexpression (NULL stays NULL).
type Not struct{ E Expr }

// Eval computes NOT with three-valued logic.
func (n *Not) Eval(row []datum.Datum) (datum.Datum, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	if v.Null() {
		return datum.NewNull(datum.Bool), nil
	}
	return datum.NewBool(!v.Bool()), nil
}

// Columns delegates to the operand.
func (n *Not) Columns(dst []int) []int { return n.E.Columns(dst) }

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// Neg is unary minus.
type Neg struct{ E Expr }

// Eval negates a numeric value.
func (n *Neg) Eval(row []datum.Datum) (datum.Datum, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	if v.Null() {
		return v, nil
	}
	if v.T == datum.Int {
		return datum.NewInt(-v.Int()), nil
	}
	return datum.NewFloat(-v.Float()), nil
}

// Columns delegates to the operand.
func (n *Neg) Columns(dst []int) []int { return n.E.Columns(dst) }

func (n *Neg) String() string { return fmt.Sprintf("(-%s)", n.E) }

// Like implements the SQL LIKE predicate with % and _ wildcards.
type Like struct {
	E       Expr
	Pattern string
	Negate  bool
}

// Eval matches the operand against the pattern.
func (l *Like) Eval(row []datum.Datum) (datum.Datum, error) {
	v, err := l.E.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	if v.Null() {
		return datum.NewNull(datum.Bool), nil
	}
	m := likeMatch(l.Pattern, v.Text())
	if l.Negate {
		m = !m
	}
	return datum.NewBool(m), nil
}

// Columns delegates to the operand.
func (l *Like) Columns(dst []int) []int { return l.E.Columns(dst) }

func (l *Like) String() string {
	if l.Negate {
		return fmt.Sprintf("(%s NOT LIKE '%s')", l.E, l.Pattern)
	}
	return fmt.Sprintf("(%s LIKE '%s')", l.E, l.Pattern)
}

// likeMatch implements %/_ globbing with backtracking over the single %
// star positions (iterative two-pointer algorithm, O(n·m) worst case).
func likeMatch(pattern, s string) bool {
	var pi, si int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '%':
			star, match = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// In implements "expr IN (a, b, c)" over constant lists. A skeleton-cached
// statement may carry parameter placeholders in the list: they survive
// resolution in Slots (the IN-list slot vector) and every execution's
// BindSlots appends its bound values to List, so prepared
// "WHERE x IN ($1, $2)" shares one cached skeleton instead of re-planning
// per execution. A node with unbound Slots never reaches the executor.
type In struct {
	E      Expr
	List   []datum.Datum
	Slots  []*Slot // unbound parameters of the list; nil once bound
	Negate bool
}

// Eval tests membership.
func (in *In) Eval(row []datum.Datum) (datum.Datum, error) {
	if len(in.Slots) > 0 {
		return datum.Datum{}, fmt.Errorf("expr: unbound parameters in IN list")
	}
	v, err := in.E.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	if v.Null() {
		return datum.NewNull(datum.Bool), nil
	}
	found := false
	for _, d := range in.List {
		if datum.Equal(v, d) {
			found = true
			break
		}
	}
	if in.Negate {
		found = !found
	}
	return datum.NewBool(found), nil
}

// Columns delegates to the operand.
func (in *In) Columns(dst []int) []int { return in.E.Columns(dst) }

func (in *In) String() string {
	items := make([]string, 0, len(in.List)+len(in.Slots))
	for _, d := range in.List {
		items = append(items, d.String())
	}
	for _, s := range in.Slots {
		items = append(items, s.String())
	}
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", in.E, op, strings.Join(items, ", "))
}

// Between implements "expr BETWEEN lo AND hi" (inclusive).
type Between struct {
	E, Lo, Hi Expr
}

// Eval tests the inclusive range.
func (b *Between) Eval(row []datum.Datum) (datum.Datum, error) {
	v, err := b.E.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	lo, err := b.Lo.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	hi, err := b.Hi.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	if v.Null() || lo.Null() || hi.Null() {
		return datum.NewNull(datum.Bool), nil
	}
	return datum.NewBool(datum.Compare(v, lo) >= 0 && datum.Compare(v, hi) <= 0), nil
}

// Columns unions all three operands.
func (b *Between) Columns(dst []int) []int {
	return b.Hi.Columns(b.Lo.Columns(b.E.Columns(dst)))
}

func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.E, b.Lo, b.Hi)
}

// IsNull implements "expr IS [NOT] NULL".
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval tests nullness; never returns NULL itself.
func (i *IsNull) Eval(row []datum.Datum) (datum.Datum, error) {
	v, err := i.E.Eval(row)
	if err != nil {
		return datum.Datum{}, err
	}
	isNull := v.Null()
	if i.Negate {
		isNull = !isNull
	}
	return datum.NewBool(isNull), nil
}

// Columns delegates to the operand.
func (i *IsNull) Columns(dst []int) []int { return i.E.Columns(dst) }

func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// When is one CASE arm.
type When struct {
	Cond Expr
	Then Expr
}

// Case implements searched CASE WHEN ... THEN ... [ELSE ...] END.
type Case struct {
	Whens []When
	Else  Expr // may be nil => NULL
}

// Eval returns the first matching arm.
func (c *Case) Eval(row []datum.Datum) (datum.Datum, error) {
	for _, w := range c.Whens {
		cond, err := w.Cond.Eval(row)
		if err != nil {
			return datum.Datum{}, err
		}
		if !cond.Null() && cond.Bool() {
			return w.Then.Eval(row)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row)
	}
	return datum.NewNull(datum.Unknown), nil
}

// Columns unions every arm.
func (c *Case) Columns(dst []int) []int {
	for _, w := range c.Whens {
		dst = w.Cond.Columns(dst)
		dst = w.Then.Columns(dst)
	}
	if c.Else != nil {
		dst = c.Else.Columns(dst)
	}
	return dst
}

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// TruthyResult evaluates e as a predicate: NULL counts as false.
func TruthyResult(e Expr, row []datum.Datum) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return !v.Null() && v.Bool(), nil
}

// DistinctColumns returns the sorted unique column ordinals referenced by e.
func DistinctColumns(e Expr) []int {
	cols := e.Columns(nil)
	seen := make(map[int]bool, len(cols))
	out := cols[:0]
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	// insertion sort: lists are tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// SplitConjuncts flattens a tree of ANDs into its conjunct list, the unit
// the optimizer reorders by selectivity.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == And {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds a conjunction from a list (nil for empty).
func JoinConjuncts(list []Expr) Expr {
	if len(list) == 0 {
		return nil
	}
	e := list[0]
	for _, c := range list[1:] {
		e = &BinOp{Op: And, L: e, R: c}
	}
	return e
}

// Remap rewrites every ColRef through the mapping (old ordinal -> new).
// It returns an error if a referenced column is missing from the mapping.
// Used when pushing predicates below projections and into scans.
func Remap(e Expr, mapping map[int]int) (Expr, error) {
	switch n := e.(type) {
	case *ColRef:
		ni, ok := mapping[n.Index]
		if !ok {
			return nil, fmt.Errorf("expr: column %s not available after remap", n)
		}
		return &ColRef{Index: ni, Name: n.Name, Type: n.Type}, nil
	case *Const:
		return n, nil
	case *Slot:
		return n, nil
	case *Kernel:
		// Compiled closures bake in column indices; remapping invalidates
		// them, so remap the interpreted tree and recompile above if wanted.
		return Remap(n.E, mapping)
	case *BinOp:
		l, err := Remap(n.L, mapping)
		if err != nil {
			return nil, err
		}
		r, err := Remap(n.R, mapping)
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: n.Op, L: l, R: r}, nil
	case *Not:
		inner, err := Remap(n.E, mapping)
		if err != nil {
			return nil, err
		}
		return &Not{E: inner}, nil
	case *Neg:
		inner, err := Remap(n.E, mapping)
		if err != nil {
			return nil, err
		}
		return &Neg{E: inner}, nil
	case *Like:
		inner, err := Remap(n.E, mapping)
		if err != nil {
			return nil, err
		}
		return &Like{E: inner, Pattern: n.Pattern, Negate: n.Negate}, nil
	case *In:
		inner, err := Remap(n.E, mapping)
		if err != nil {
			return nil, err
		}
		return &In{E: inner, List: n.List, Slots: n.Slots, Negate: n.Negate}, nil
	case *Between:
		ev, err := Remap(n.E, mapping)
		if err != nil {
			return nil, err
		}
		lo, err := Remap(n.Lo, mapping)
		if err != nil {
			return nil, err
		}
		hi, err := Remap(n.Hi, mapping)
		if err != nil {
			return nil, err
		}
		return &Between{E: ev, Lo: lo, Hi: hi}, nil
	case *IsNull:
		inner, err := Remap(n.E, mapping)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Negate: n.Negate}, nil
	case *Case:
		out := &Case{Whens: make([]When, len(n.Whens))}
		for i, w := range n.Whens {
			cond, err := Remap(w.Cond, mapping)
			if err != nil {
				return nil, err
			}
			then, err := Remap(w.Then, mapping)
			if err != nil {
				return nil, err
			}
			out.Whens[i] = When{Cond: cond, Then: then}
		}
		if n.Else != nil {
			els, err := Remap(n.Else, mapping)
			if err != nil {
				return nil, err
			}
			out.Else = els
		}
		return out, nil
	default:
		return nil, fmt.Errorf("expr: Remap: unknown node %T", e)
	}
}
