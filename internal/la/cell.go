package la

import (
	"fmt"

	"dmml/internal/pool"
)

// CellInto computes one element-wise operator into out (overwriting it) and
// returns out. A binary code combines a and b; a unary code maps a and
// ignores b. Operands are dense matrices shaped like out or broadcast
// scalars, and at least one operand of the operator must be dense.
//
// This is the unfused counterpart of FusedCellInto: it runs the same named
// tile loops the compiled fused templates dispatch to (the 8-lane
// sigmoidTile among them), so a lone operator and the same operator inside
// a fused region agree bit for bit, and it splits the sweep over the worker
// pool above parallelThreshold the same way. It compiles no program and
// moves none of the fused-template instruments.
func CellInto(out *Dense, code FuseOpCode, a, b FusedInput) *Dense {
	switch {
	case code < FuseAdd || code > FuseSigmoid:
		panic(fmt.Sprintf("la: CellInto with non-arithmetic op %d", code))
	case code >= FuseNeg:
		cellCheckDense(out, a, "operand")
	case a.IsScalar && b.IsScalar:
		panic("la: CellInto needs a dense operand")
	default:
		if !a.IsScalar {
			cellCheckDense(out, a, "left operand")
		}
		if !b.IsScalar {
			cellCheckDense(out, b, "right operand")
		}
	}
	// One op per cell: the work estimate FusedCellInto makes for a one-op
	// program.
	total := len(out.data)
	if 2*total < parallelThreshold || pool.SerialNow() {
		cellRange(out.data, code, a, b, 0, total)
		return out
	}
	nt := (total + fusedTileW - 1) / fusedTileW
	pool.Do(nt, pool.Grain(nt, 2*fusedTileW), func(_, t0, t1 int) {
		cellRange(out.data, code, a, b, t0*fusedTileW, min(t1*fusedTileW, total))
	})
	return out
}

func cellCheckDense(out *Dense, in FusedInput, what string) {
	switch {
	case in.IsScalar || in.D == nil:
		panic(fmt.Sprintf("la: CellInto %s must be a dense matrix", what))
	case in.D.rows != out.rows || in.D.cols != out.cols:
		panic(fmt.Sprintf("la: CellInto %s is %dx%d, want %dx%d", what, in.D.rows, in.D.cols, out.rows, out.cols))
	}
}

// cellRange applies the operator over the flat element range [lo,hi) of dst
// through the loop selector for its operand kinds (sigmoid resolves to the
// tile-vectorized sigmoidTile).
func cellRange(dst []float64, code FuseOpCode, a, b FusedInput, lo, hi int) {
	d := dst[lo:hi]
	switch {
	case code >= FuseNeg:
		uLoopC(code)(d, a.D.data[lo:hi])
	case a.IsScalar:
		svLoop(code)(d, a.S, b.D.data[lo:hi])
	case b.IsScalar:
		vsLoop(code)(d, a.D.data[lo:hi], b.S)
	default:
		vvLoop(code)(d, a.D.data[lo:hi], b.D.data[lo:hi])
	}
}
