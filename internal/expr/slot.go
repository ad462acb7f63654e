package expr

// Late-bound parameter slots and compiled kernel nodes. Both exist for the
// plan-skeleton cache: a prepared statement's resolved expression trees are
// cached with Slot nodes where parameter placeholders appeared, and each
// execution re-binds them to that execution's literal values (BindSlots)
// without re-running name resolution. The internal/kernel compiler then
// attaches type-specialized batch closures to the bound trees as Kernel
// nodes, which EvalBatch/FilterBatch prefer over the generic tree walk.

import (
	"fmt"

	"nodb/internal/datum"
)

// Slot is a late-bound literal: a parameter placeholder that survives
// resolution, so a cached plan skeleton can be re-bound to new values per
// execution. Slots never reach the executor — BindSlots replaces them with
// Const nodes during plan binding; evaluating one is a planner bug.
type Slot struct {
	Ordinal int    // 1-based positional parameter ($n / ?); 0 when named
	Name    string // named parameter (lower-case); "" when positional
}

// Eval fails: slots must be bound before execution.
func (s *Slot) Eval([]datum.Datum) (datum.Datum, error) {
	return datum.Datum{}, fmt.Errorf("expr: unbound parameter %s", s)
}

// Columns returns dst unchanged: slots reference no columns.
func (s *Slot) Columns(dst []int) []int { return dst }

func (s *Slot) String() string {
	if s.Name != "" {
		return ":" + s.Name
	}
	return fmt.Sprintf("$%d", s.Ordinal)
}

// BindSlots returns e with every Slot replaced by the literal the binder
// supplies. Subtrees without slots are returned as-is (shared, not cloned),
// so binding a slot-free tree costs one walk and no allocation — the cached
// skeleton's trees stay immutable and safely shared across concurrent
// executions.
func BindSlots(e Expr, bind func(*Slot) (datum.Datum, error)) (Expr, error) {
	out, _, err := bindSlots(e, bind)
	return out, err
}

func bindSlots(e Expr, bind func(*Slot) (datum.Datum, error)) (Expr, bool, error) {
	switch n := e.(type) {
	case *Slot:
		d, err := bind(n)
		if err != nil {
			return nil, false, err
		}
		return &Const{D: d}, true, nil
	case *ColRef, *Const:
		return e, false, nil
	case *BinOp:
		l, lc, err := bindSlots(n.L, bind)
		if err != nil {
			return nil, false, err
		}
		r, rc, err := bindSlots(n.R, bind)
		if err != nil {
			return nil, false, err
		}
		if !lc && !rc {
			return e, false, nil
		}
		return FoldConst(&BinOp{Op: n.Op, L: l, R: r}), true, nil
	case *Not:
		inner, c, err := bindSlots(n.E, bind)
		if err != nil || !c {
			return e, false, err
		}
		return &Not{E: inner}, true, nil
	case *Neg:
		inner, c, err := bindSlots(n.E, bind)
		if err != nil || !c {
			return e, false, err
		}
		return &Neg{E: inner}, true, nil
	case *Like:
		inner, c, err := bindSlots(n.E, bind)
		if err != nil || !c {
			return e, false, err
		}
		return &Like{E: inner, Pattern: n.Pattern, Negate: n.Negate}, true, nil
	case *In:
		inner, c, err := bindSlots(n.E, bind)
		if err != nil {
			return nil, false, err
		}
		if len(n.Slots) == 0 {
			if !c {
				return e, false, nil
			}
			return &In{E: inner, List: n.List, Negate: n.Negate}, true, nil
		}
		// IN-list slot vector: the skeleton keeps the literal prefix and the
		// placeholder tail separate; binding concatenates them. Membership is
		// order-independent, so this is equivalent to in-place substitution.
		list := make([]datum.Datum, 0, len(n.List)+len(n.Slots))
		list = append(list, n.List...)
		for _, s := range n.Slots {
			d, err := bind(s)
			if err != nil {
				return nil, false, err
			}
			list = append(list, d)
		}
		return &In{E: inner, List: list, Negate: n.Negate}, true, nil
	case *Between:
		ev, ec, err := bindSlots(n.E, bind)
		if err != nil {
			return nil, false, err
		}
		lo, lc, err := bindSlots(n.Lo, bind)
		if err != nil {
			return nil, false, err
		}
		hi, hc, err := bindSlots(n.Hi, bind)
		if err != nil {
			return nil, false, err
		}
		if !ec && !lc && !hc {
			return e, false, nil
		}
		return &Between{E: ev, Lo: lo, Hi: hi}, true, nil
	case *IsNull:
		inner, c, err := bindSlots(n.E, bind)
		if err != nil || !c {
			return e, false, err
		}
		return &IsNull{E: inner, Negate: n.Negate}, true, nil
	case *Case:
		out := &Case{Whens: make([]When, len(n.Whens))}
		changed := false
		for i, w := range n.Whens {
			cond, cc, err := bindSlots(w.Cond, bind)
			if err != nil {
				return nil, false, err
			}
			then, tc, err := bindSlots(w.Then, bind)
			if err != nil {
				return nil, false, err
			}
			out.Whens[i] = When{Cond: cond, Then: then}
			changed = changed || cc || tc
		}
		if n.Else != nil {
			els, ec, err := bindSlots(n.Else, bind)
			if err != nil {
				return nil, false, err
			}
			out.Else = els
			changed = changed || ec
		}
		if !changed {
			return e, false, nil
		}
		return out, true, nil
	case *Kernel:
		// Kernels attach after binding; one inside an unbound tree would be
		// compiled against stale literals. Rebind the wrapped tree and drop
		// the compiled closures.
		return bindSlots(n.E, bind)
	default:
		return nil, false, fmt.Errorf("expr: BindSlots: unknown node %T", e)
	}
}

// Kernel pairs an expression with compiled, type-specialized batch
// implementations (built by internal/kernel). The vectorized evaluators
// prefer the compiled closures; the scalar path and every structural walk
// (Columns, String) defer to the wrapped tree, so the two representations
// cannot diverge semantically.
type Kernel struct {
	E Expr
	// Filter narrows a selection to the live positions where E is true
	// (NULL drops the row), appending survivors to buf in ascending order —
	// the FilterBatch contract. ok=false means the batch does not have the
	// layout the kernel was compiled for and the caller must fall back to
	// the interpreted tree. Filter closures are stateless: one conjunct's
	// Kernel is shared by the partition workers of a parallel scan. Nil
	// when the shape compiled as a value program.
	Filter func(cols [][]datum.Datum, n int, sel []int, buf []int) ([]int, bool)
	// EvalVec computes E at every live position of the batch as a typed
	// vector (see Vec). ok=false means a live value's type tag disagreed
	// with the program's static types (or a column is missing), and the
	// caller must evaluate the interpreted tree for this batch. The
	// returned vector and the program's scratch are reused by the next
	// call: a Kernel carrying EvalVec belongs to one operator and is never
	// shared across goroutines. Nil when the shape compiled as a predicate.
	EvalVec func(cols [][]datum.Datum, n int, sel []int) (v *Vec, ok bool, err error)
}

// Eval delegates to the interpreted tree (row-at-a-time path).
func (k *Kernel) Eval(row []datum.Datum) (datum.Datum, error) { return k.E.Eval(row) }

// Columns delegates to the interpreted tree.
func (k *Kernel) Columns(dst []int) []int { return k.E.Columns(dst) }

func (k *Kernel) String() string { return k.E.String() }
