package expr

import "fmt"

// AggKind enumerates the aggregate functions supported by the engine.
type AggKind uint8

// Aggregate functions.
const (
	AggCount AggKind = iota // COUNT(expr): non-null inputs
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"COUNT", "COUNT(*)", "SUM", "AVG", "MIN", "MAX"}

func (k AggKind) String() string { return aggNames[k] }

// ParseAggKind maps a function name to its AggKind.
func ParseAggKind(name string) (AggKind, bool) {
	switch name {
	case "count", "COUNT":
		return AggCount, true
	case "sum", "SUM":
		return AggSum, true
	case "avg", "AVG":
		return AggAvg, true
	case "min", "MIN":
		return AggMin, true
	case "max", "MAX":
		return AggMax, true
	default:
		return 0, false
	}
}

// Aggregate is one aggregate call site: kind plus its argument expression
// (nil for COUNT(*)). Distinct restricts the input to distinct values
// (COUNT(DISTINCT x), SUM(DISTINCT x), ...). The executor's accumulators
// (internal/exec) define the aggregates' semantics.
type Aggregate struct {
	Kind     AggKind
	Arg      Expr
	Distinct bool
}

// Columns appends the argument's column ordinals.
func (a *Aggregate) Columns(dst []int) []int {
	if a.Arg == nil {
		return dst
	}
	return a.Arg.Columns(dst)
}

func (a *Aggregate) String() string {
	if a.Kind == AggCountStar || a.Arg == nil {
		return "COUNT(*)"
	}
	if a.Distinct {
		return fmt.Sprintf("%s(DISTINCT %s)", a.Kind, a.Arg)
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Arg)
}
