package expr

import "nodb/internal/datum"

// Vec is a typed value vector: what a compiled value program
// (Kernel.EvalVec) produces instead of a []datum.Datum. T is the type of
// every non-NULL live value; Int, Date and Bool payloads live in I, Float
// payloads in F. Null, when non-nil, marks the NULL live positions, and
// NullT holds each one's type tag — the tag Eval would have given that
// NULL — so materializing a Vec reproduces the interpreted Datums exactly.
// Positions outside the batch's live set hold garbage.
type Vec struct {
	T     datum.Type
	I     []int64
	F     []float64
	Null  []bool
	NullT []datum.Type
}

// IsNull reports whether live position i is NULL.
func (v *Vec) IsNull(i int) bool { return v.Null != nil && v.Null[i] }

// Datum materializes live position i.
func (v *Vec) Datum(i int) datum.Datum {
	if v.IsNull(i) {
		return datum.NewNull(v.NullT[i])
	}
	switch v.T {
	case datum.Float:
		return datum.NewFloat(v.F[i])
	case datum.Date:
		return datum.NewDate(v.I[i])
	case datum.Bool:
		return datum.NewBool(v.I[i] != 0)
	}
	return datum.NewInt(v.I[i])
}

// Materialize writes the Datum of every live position into out (the
// EvalBatch contract: dead positions are left untouched).
//
//nodb:hotpath
func (v *Vec) Materialize(out []datum.Datum, n int, sel []int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			out[i] = v.Datum(i)
		}
		return
	}
	for _, i := range sel {
		out[i] = v.Datum(i)
	}
}
