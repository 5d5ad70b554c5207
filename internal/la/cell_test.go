package la

import (
	"math/rand"
	"testing"
)

// TestCellIntoZeroAllocSteadyState: CellInto reaches its tile loop through
// a loop selector's function value, which the static noalloc audit cannot
// follow, so this pin holds every operand arrangement — matrix∘matrix,
// matrix∘scalar, scalar∘matrix, unary and the vectorized sigmoid — to zero
// allocations in the serial regime.
func TestCellIntoZeroAllocSteadyState(t *testing.T) {
	withGOMAXPROCS(1, func() {
		r := rand.New(rand.NewSource(41))
		x := DenseInput(randMat(r, 300, 40, 0))
		y := DenseInput(randMat(r, 300, 40, 0))
		s := ScalarInput(1.5)
		out := NewDense(300, 40)
		for _, tc := range []struct {
			name string
			code FuseOpCode
			a, b FusedInput
		}{
			{"matrix-matrix", FuseSub, x, y},
			{"matrix-scalar", FuseMul, x, s},
			{"scalar-matrix", FuseDiv, s, y},
			{"unary", FuseAbs, x, FusedInput{}},
			{"sigmoid", FuseSigmoid, x, FusedInput{}},
		} {
			if a := testing.AllocsPerRun(50, func() { CellInto(out, tc.code, tc.a, tc.b) }); a != 0 {
				t.Errorf("CellInto %s allocates %v per run, want 0", tc.name, a)
			}
		}
	})
}
