package opt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
)

// fakeBlocks adapts a dense matrix into an opt.BlockData with fixed-size row
// blocks, for testing the streaming evaluation without the ooc machinery.
type fakeBlocks struct {
	m         *la.Dense
	blockRows int
	failAt    int // block index to fail at, -1 for never
	failPass  int // first pass (ForEachBlock call, from 0) that fails at failAt
	passes    int // ForEachBlock calls so far
}

var errInjectedBlock = errors.New("injected block failure")

func (f *fakeBlocks) Rows() int { return f.m.Rows() }
func (f *fakeBlocks) Cols() int { return f.m.Cols() }
func (f *fakeBlocks) MatVec(v []float64) []float64 {
	return la.MatVec(f.m, v)
}
func (f *fakeBlocks) VecMat(x []float64) []float64 {
	return la.VecMat(x, f.m)
}
func (f *fakeBlocks) NumBlocks() int {
	return (f.m.Rows() + f.blockRows - 1) / f.blockRows
}

func (f *fakeBlocks) ForEachBlock(fn func(RowBlock) error) error {
	pass := f.passes
	f.passes++
	for i := 0; i < f.NumBlocks(); i++ {
		if i == f.failAt && pass >= f.failPass {
			return fmt.Errorf("%w at block %d", errInjectedBlock, i)
		}
		r0 := i * f.blockRows
		nb := f.blockRows
		if r0+nb > f.m.Rows() {
			nb = f.m.Rows() - r0
		}
		if err := fn(&fakeBlock{f.m, r0, nb}); err != nil {
			return err
		}
	}
	return nil
}

type fakeBlock struct {
	m        *la.Dense
	startRow int
	rows     int
}

func (b *fakeBlock) StartRow() int { return b.startRow }
func (b *fakeBlock) Rows() int     { return b.rows }
func (b *fakeBlock) Cols() int     { return b.m.Cols() }

func (b *fakeBlock) MatVecInto(dst, v []float64) []float64 {
	for i := 0; i < b.rows; i++ {
		dst[i] = la.Dot(b.m.RowView(b.startRow+i), v)
	}
	return dst
}

func (b *fakeBlock) VecMatAccum(out, x []float64) {
	for i, xi := range x {
		la.Axpy(xi, b.m.RowView(b.startRow+i), out)
	}
}

// TestStreamMatchesBulk: GradientDescent over a BlockData source must produce
// the same iterates as over the plain dense source — the streaming evaluation
// is the same computation in block order.
func TestStreamMatchesBulk(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	m, y := randProblem(r, 500, 7)
	cfg := GDConfig{Step: 0.2, MaxIter: 12, L2: 0.05}
	want, err := GradientDescent(DenseData{M: m}, y, Logistic{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range []int{1, 64, 100, 500, 512} {
		got, err := GradientDescent(&fakeBlocks{m: m, blockRows: br, failAt: -1}, y, Logistic{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.W {
			if math.Abs(got.W[j]-want.W[j]) > 1e-10 {
				t.Fatalf("blockRows=%d w[%d] = %v, want %v", br, j, got.W[j], want.W[j])
			}
		}
	}
}

// TestStreamLossAndGradient checks the public entry point dispatches too.
func TestStreamLossAndGradient(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	m, y := randProblem(r, 300, 5)
	w := make([]float64, 5)
	for j := range w {
		w[j] = r.NormFloat64()
	}
	wantL, wantG := LossAndGradient(DenseData{M: m}, y, w, Squared{}, 0.1)
	gotL, gotG := LossAndGradient(&fakeBlocks{m: m, blockRows: 77, failAt: -1}, y, w, Squared{}, 0.1)
	if math.Abs(gotL-wantL) > 1e-10 {
		t.Fatalf("loss = %v, want %v", gotL, wantL)
	}
	for j := range wantG {
		if math.Abs(gotG[j]-wantG[j]) > 1e-10 {
			t.Fatalf("grad[%d] = %v, want %v", j, gotG[j], wantG[j])
		}
	}
}

func TestStreamBlockFailurePanics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	m, y := randProblem(r, 200, 4)
	w := make([]float64, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on mid-stream block failure")
		}
	}()
	LossAndGradient(&fakeBlocks{m: m, blockRows: 50, failAt: 2}, y, w, Logistic{}, 0)
}

// TestGradientDescentBlockFailureReturnsError: a block source failing on the
// first evaluation, or on a later pass inside an iteration, ends
// GradientDescent with that error instead of a panic.
func TestGradientDescentBlockFailureReturnsError(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	m, y := randProblem(r, 200, 4)
	cfg := GDConfig{Step: 0.2, MaxIter: 10, Backtracking: true}
	for _, failPass := range []int{0, 3} {
		fb := &fakeBlocks{m: m, blockRows: 50, failAt: 2, failPass: failPass}
		res, err := GradientDescent(fb, y, Logistic{}, cfg)
		if !errors.Is(err, errInjectedBlock) {
			t.Fatalf("failPass=%d: err = %v, want the injected failure", failPass, err)
		}
		if res != nil {
			t.Fatalf("failPass=%d: got a result alongside the error", failPass)
		}
		if fb.passes != failPass+1 {
			t.Fatalf("failPass=%d: %d passes, want the run to stop at the failing one", failPass, fb.passes)
		}
	}
}

func TestStreamingSGDValidation(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m, y := randProblem(r, 100, 3)
	fb := &fakeBlocks{m: m, blockRows: 10, failAt: -1}
	if _, err := StreamingSGD(fb, y, Logistic{}, StreamConfig{Step: 0, Epochs: 1}); err == nil {
		t.Fatal("want error for zero step")
	}
	if _, err := StreamingSGD(fb, y, Logistic{}, StreamConfig{Step: 0.1, Epochs: 0}); err == nil {
		t.Fatal("want error for zero epochs")
	}
	if _, err := StreamingSGD(fb, y[:50], Logistic{}, StreamConfig{Step: 0.1, Epochs: 1}); err == nil {
		t.Fatal("want error for label length mismatch")
	}
	fb.failAt = 1
	if _, err := StreamingSGD(fb, y, Logistic{}, StreamConfig{Step: 0.1, Epochs: 1}); err == nil {
		t.Fatal("want propagated block failure")
	}
}
