package la

// Compiler properties: the compiled kernels must agree with a per-element
// interpretation of the program; the flat matcher must fire on the template
// shapes it advertises, and its kernels must agree with the materializing
// reference refFused — bit for bit on cell templates, to the reduction
// tolerance on aggregates; scalar-rooted programs compile to a broadcast
// and programs wider than the kernel signature are refused; the vectorized
// sigmoid must be bit-identical to the scalar form; and the compiled entry
// points must hold the zero-alloc contract.

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) &&
			!(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func relClose(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// interpFused evaluates a fused program one element at a time: the whole
// postfix program runs on a scalar stack for each (i, j), reading CSR
// operands through At. Unlike refFused it never materializes an
// intermediate, so it checks the compiled kernels against the program's
// per-element meaning rather than against the unfused evaluator's order.
func interpFused(p *FuseProgram, ins []FusedInput, rows, cols int) []float64 {
	out := make([]float64, rows*cols)
	stack := make([]float64, 0, len(p.ops))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			stack = stack[:0]
			for _, op := range p.ops {
				switch op.Code {
				case FuseConst:
					stack = append(stack, op.Val)
				case FuseLoad:
					in := ins[op.Arg]
					switch {
					case in.IsScalar:
						stack = append(stack, in.S)
					case in.D != nil:
						stack = append(stack, in.D.At(i, j))
					default:
						stack = append(stack, in.C.At(i, j))
					}
				case FuseAdd, FuseSub, FuseMul, FuseDiv, FusePow:
					n := len(stack)
					stack[n-2] = fuseScalarBin(op.Code, stack[n-2], stack[n-1])
					stack = stack[:n-1]
				default:
					stack[len(stack)-1] = fuseScalarUn(op.Code, stack[len(stack)-1])
				}
			}
			out[i*cols+j] = stack[0]
		}
	}
	return out
}

// TestCompiledMatchesInterpCell: random programs over random input mixes —
// the compiled closure/flat kernels must reproduce the per-element
// interpretation bit for bit on element-wise outputs, serial and
// forced-parallel.
func TestCompiledMatchesInterpCell(t *testing.T) {
	oldThresh := parallelThreshold
	parallelThreshold = 1
	defer func() { parallelThreshold = oldThresh }()

	r := rand.New(rand.NewSource(31))
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows := 1 + rr.Intn(40)
		cols := 1 + rr.Intn(40)
		p, ins := genFusedCase(rr, rows, cols)
		got := FusedCell(p, ins, rows, cols).data
		if want := interpFused(p, ins, rows, cols); !bitsEqual(got, want) {
			t.Logf("compiled cell differs from interpreted at %dx%d, %d ops", rows, cols, len(p.ops))
			return false
		}
		return true
	}
	eachProcs(func() {
		if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: r}); err != nil {
			t.Error(err)
		}
	})
}

// TestCompiledMatchesInterpAgg: every aggregate entry point, compiled vs
// reductions of the per-element interpretation, within the reduction
// tolerance the fused properties grant (flat aggregates reassociate their
// accumulators).
func TestCompiledMatchesInterpAgg(t *testing.T) {
	oldThresh := parallelThreshold
	parallelThreshold = 1
	defer func() { parallelThreshold = oldThresh }()

	r := rand.New(rand.NewSource(32))
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows := 1 + rr.Intn(40)
		cols := 1 + rr.Intn(40)
		p, ins := genFusedCase(rr, rows, cols)
		tol := 1e-8 * float64(p.arith+1)
		v := make([]float64, cols)
		for j := range v {
			v[j] = rr.NormFloat64()
		}
		cell := interpFused(p, ins, rows, cols)
		if got, want := FusedSum(p, ins, rows, cols), refSum(cell); !relClose(got, want, tol) {
			t.Logf("sum: compiled %g vs interp %g", got, want)
			return false
		}
		wantRow := make([]float64, rows)
		wantCol := make([]float64, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				wantRow[i] += cell[i*cols+j]
				wantCol[j] += cell[i*cols+j]
			}
		}
		for _, agg := range []struct {
			name      string
			got, want []float64
		}{
			{"rowSums", FusedRowSumsInto(make([]float64, rows), p, ins, rows, cols), wantRow},
			{"colSums", FusedColSumsInto(make([]float64, cols), p, ins, rows, cols), wantCol},
			{"matvec", FusedMatVecInto(make([]float64, rows), p, ins, rows, cols, v), refMatVec(cell, rows, cols, v)},
		} {
			for i := range agg.got {
				if !relClose(agg.got[i], agg.want[i], tol) {
					t.Logf("%s[%d]: compiled %g vs interp %g", agg.name, i, agg.got[i], agg.want[i])
					return false
				}
			}
		}
		return true
	}
	eachProcs(func() {
		if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
			t.Error(err)
		}
	})
}

// ops builders for the template table.
func opsLoad(i int) FusedOp      { return FusedOp{Code: FuseLoad, Arg: i} }
func opsConst(v float64) FusedOp { return FusedOp{Code: FuseConst, Val: v} }
func opsOp(c FuseOpCode) FusedOp { return FusedOp{Code: c} }

// TestFlatTemplateMatch pins the pattern matcher: each template shape must
// compile to its named flat kernel and execute bit-identically to the
// materializing reference (cells) or within reduction tolerance
// (aggregates).
func TestFlatTemplateMatch(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	rows, cols := 37, 23
	x := randMat(r, rows, cols, 0)
	y := randMat(r, rows, cols, 0)
	z := randMat(r, rows, cols, 0)

	cases := []struct {
		name string
		ops  []FusedOp
		nin  int
		ins  []FusedInput
		flat string
		cell bool // flatCell expected; else flatSum+flatRow
	}{
		{
			// The E15 heavy hitter: sigmoid(x*2 + 1)*x - x/3.
			name: "sigchain",
			ops: []FusedOp{opsLoad(0), opsConst(2), opsOp(FuseMul), opsConst(1), opsOp(FuseAdd),
				opsOp(FuseSigmoid), opsLoad(0), opsOp(FuseMul), opsLoad(0), opsConst(3), opsOp(FuseDiv), opsOp(FuseSub)},
			nin: 1, ins: []FusedInput{DenseInput(x)}, flat: "cell.sigchain", cell: true,
		},
		{
			name: "sigmoid bare",
			ops:  []FusedOp{opsLoad(0), opsOp(FuseSigmoid)},
			nin:  1, ins: []FusedInput{DenseInput(x)}, flat: "cell.sigmoid", cell: true,
		},
		{
			// Dynamic scalar slope: sigmoid(x*s + 0.5) with s an input.
			name: "sigmoid dynamic affine",
			ops: []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseMul), opsConst(0.5), opsOp(FuseAdd),
				opsOp(FuseSigmoid)},
			nin: 2, ins: []FusedInput{DenseInput(x), ScalarInput(1.7)}, flat: "cell.sigmoid", cell: true,
		},
		{
			name: "axpy add",
			ops:  []FusedOp{opsLoad(0), opsLoad(1), opsConst(-1e-4), opsOp(FuseMul), opsOp(FuseAdd)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "cell.axpy", cell: true,
		},
		{
			name: "axpy rsub",
			ops:  []FusedOp{opsConst(3), opsLoad(1), opsOp(FuseMul), opsLoad(0), opsOp(FuseSub)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "cell.axpy", cell: true,
		},
		{
			name: "scalebin",
			ops:  []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseSub), opsConst(0.5), opsOp(FuseMul)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "cell.scalebin", cell: true,
		},
		{
			// Derived scalar: (x*y) / (s1*s2) — prelude computes the divisor.
			name: "scalebin derived scalar",
			ops: []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseMul), opsLoad(2), opsLoad(3),
				opsOp(FuseMul), opsOp(FuseDiv)},
			nin: 4, ins: []FusedInput{DenseInput(x), DenseInput(y), ScalarInput(2.5), ScalarInput(0.8)},
			flat: "cell.scalebin", cell: true,
		},
		{
			name: "agg sqdiff",
			ops:  []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseSub), opsOp(FuseSq)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "agg.sqdiff",
		},
		{
			name: "agg sq",
			ops:  []FusedOp{opsLoad(0), opsOp(FuseSq)},
			nin:  1, ins: []FusedInput{DenseInput(x)}, flat: "agg.sq",
		},
		{
			name: "agg mul",
			ops:  []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseMul)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "agg.mul",
		},
		{
			name: "agg muladd",
			ops:  []FusedOp{opsLoad(0), opsLoad(0), opsOp(FuseMul), opsLoad(1), opsOp(FuseAdd)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "agg.muladd",
		},
		{
			// x*2 + y: an axpy as a cell, a scaleadd row aggregate.
			name: "scaleadd dual",
			ops:  []FusedOp{opsLoad(0), opsConst(2), opsOp(FuseMul), opsLoad(1), opsOp(FuseAdd)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "cell.axpy",
		},
	}
	_ = z
	for _, tc := range cases {
		p, err := CompileFused(tc.ops, tc.nin)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		k := p.kernelFor(tc.ins)
		if k.flat != tc.flat {
			t.Errorf("%s: flat %q, want %q", tc.name, k.flat, tc.flat)
			continue
		}
		if tc.cell && k.flatCell == nil {
			t.Errorf("%s: flatCell not installed", tc.name)
		}
		if !tc.cell && (k.flatSum == nil || k.flatRow == nil) {
			t.Errorf("%s: flat aggregate kernels not installed", tc.name)
		}

		// Execution agreement, flat vs reference.
		ref := refFused(p, tc.ins, rows, cols)
		if got := FusedCell(p, tc.ins, rows, cols); !bitsEqual(got.data, ref) {
			t.Errorf("%s: compiled cell differs from reference", tc.name)
		}
		v := make([]float64, cols)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		tol := 1e-8 * float64(p.arith+1)
		if got, want := FusedSum(p, tc.ins, rows, cols), refSum(ref); !relClose(got, want, tol) {
			t.Errorf("%s: compiled sum %g vs reference %g", tc.name, got, want)
		}
		want := refMatVec(ref, rows, cols, v)
		got := FusedMatVecInto(make([]float64, rows), p, tc.ins, rows, cols, v)
		for i := range got {
			if !relClose(got[i], want[i], tol) {
				t.Errorf("%s: compiled matvec[%d] %g vs reference %g", tc.name, i, got[i], want[i])
				break
			}
		}
	}
}

// TestCompiledCSRFallsBackToClosures: the same program compiles per
// input-kind signature — flat templates are dense-only, so the CSR
// specialization runs the closure tree, and still agrees with the
// reference.
func TestCompiledCSRFallsBackToClosures(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	rows, cols := 19, 31
	xd := randMat(r, rows, cols, 0.7)
	y := randMat(r, rows, cols, 0)
	ops := []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseSub), opsOp(FuseSq)}
	p, err := CompileFused(ops, 2)
	if err != nil {
		t.Fatal(err)
	}
	dense := []FusedInput{DenseInput(xd), DenseInput(y)}
	sparse := []FusedInput{CSRInput(CSRFromDense(xd)), DenseInput(y)}
	if flat := p.kernelFor(dense).flat; flat != "agg.sqdiff" {
		t.Errorf("dense specialization flat = %q, want agg.sqdiff", flat)
	}
	k := p.kernelFor(sparse)
	if k.flat != "" {
		t.Errorf("CSR specialization matched flat %q, want closure tree", k.flat)
	}
	if k.flatSum != nil || k.flatCell != nil {
		t.Error("CSR specialization installed flat kernels")
	}
	ref := refFused(p, sparse, rows, cols)
	if got := FusedCell(p, sparse, rows, cols); !bitsEqual(got.data, ref) {
		t.Error("CSR compiled cell differs from reference")
	}
	if got, want := FusedSum(p, sparse, rows, cols), refSum(ref); !relClose(got, want, 1e-8*float64(p.arith+1)) {
		t.Errorf("CSR compiled sum %g vs reference %g", got, want)
	}
}

// TestCompiledScalarRootAndInputCap: the compiler's two edge contracts. A
// program whose every input is a scalar compiles to a broadcast fill that
// all five entry points honour; a program wider than the kernel signature
// is refused by CompileFused, while one at the cap compiles.
func TestCompiledScalarRootAndInputCap(t *testing.T) {
	const rows, cols = 2, 3
	v := []float64{1, -2, 4} // integers: every broadcast result is exact
	for _, tc := range []struct {
		name string
		ops  []FusedOp
		ins  []FusedInput
	}{
		{"constant", []FusedOp{opsConst(2), opsConst(3), opsOp(FuseAdd)}, nil},
		{"dynamic scalar", []FusedOp{opsLoad(0), opsConst(3), opsOp(FuseAdd)}, []FusedInput{ScalarInput(2)}},
	} {
		p, err := CompileFused(tc.ops, len(tc.ins))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if k := p.kernelFor(tc.ins); k.root == nil || k.flat != "" {
			t.Fatalf("%s: kernel root %v, flat %q; want a closure fill", tc.name, k.root != nil, k.flat)
		}
		if got := FusedCell(p, tc.ins, rows, cols); !bitsEqual(got.data, []float64{5, 5, 5, 5, 5, 5}) {
			t.Errorf("%s: FusedCell = %v, want all 5", tc.name, got.data)
		}
		if got := FusedSum(p, tc.ins, rows, cols); got != 30 {
			t.Errorf("%s: FusedSum = %g, want 30", tc.name, got)
		}
		if got := FusedRowSumsInto(make([]float64, rows), p, tc.ins, rows, cols); !bitsEqual(got, []float64{15, 15}) {
			t.Errorf("%s: FusedRowSumsInto = %v, want [15 15]", tc.name, got)
		}
		if got := FusedColSumsInto(make([]float64, cols), p, tc.ins, rows, cols); !bitsEqual(got, []float64{10, 10, 10}) {
			t.Errorf("%s: FusedColSumsInto = %v, want [10 10 10]", tc.name, got)
		}
		if got := FusedMatVecInto(make([]float64, rows), p, tc.ins, rows, cols, v); !bitsEqual(got, []float64{15, 15}) {
			t.Errorf("%s: FusedMatVecInto = %v, want [15 15]", tc.name, got)
		}
	}

	// A left-deep sum over n distinct inputs.
	sumOf := func(n int) []FusedOp {
		ops := []FusedOp{opsLoad(0)}
		for i := 1; i < n; i++ {
			ops = append(ops, opsLoad(i), opsOp(FuseAdd))
		}
		return ops
	}
	if _, err := CompileFused(sumOf(fuseMaxInputs+1), fuseMaxInputs+1); err == nil {
		t.Errorf("CompileFused with %d inputs succeeded, want error", fuseMaxInputs+1)
	}
	p, err := CompileFused(sumOf(fuseMaxInputs), fuseMaxInputs)
	if err != nil {
		t.Fatalf("CompileFused with %d inputs: %v", fuseMaxInputs, err)
	}
	r := rand.New(rand.NewSource(35))
	ins := make([]FusedInput, fuseMaxInputs)
	for i := range ins {
		ins[i] = DenseInput(randMat(r, 3, 3, 0))
	}
	if got := FusedCell(p, ins, 3, 3); !bitsEqual(got.data, refFused(p, ins, 3, 3)) {
		t.Errorf("%d-input program differs from reference", fuseMaxInputs)
	}
}

// TestSigmoidTileBitExact: the vectorized sigmoid against the scalar form,
// over specials (±0, ±Inf, NaN, denormal-adjacent, gate boundaries) and a
// wide random sweep. This is the invariant that lets the compiled kernels
// and CellInto replace the scalar sigmoid loop.
func TestSigmoidTileBitExact(t *testing.T) {
	t.Logf("fuseExpMode = %d", fuseExpMode)
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		math.Inf(1), math.Inf(-1), math.NaN(),
		0x1p-28, -0x1p-28, 0x1p-29, -0x1p-29, 1e-300, -1e-300,
		699.9, -699.9, 700, -700, 710, -710, 36.7, -36.7,
		math.Ln2, -math.Ln2, 3 * math.Ln2, -3 * math.Ln2}
	r := rand.New(rand.NewSource(36))
	for i := 0; i < 20000; i++ {
		xs = append(xs, r.NormFloat64()*math.Exp(r.Float64()*12-6))
	}
	dst := make([]float64, len(xs))
	sigmoidTile(dst, xs)
	for i, x := range xs {
		want := fuseSigmoid(x)
		if math.Float64bits(dst[i]) != math.Float64bits(want) &&
			!(math.IsNaN(dst[i]) && math.IsNaN(want)) {
			t.Fatalf("sigmoidTile(%g) = %x, fuseSigmoid = %x", x,
				math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
	// In-place application must agree too.
	cp := append([]float64(nil), xs...)
	sigmoidTile(cp, cp)
	if !bitsEqual(cp, dst) {
		t.Error("in-place sigmoidTile differs from out-of-place")
	}
}

// TestExp8MatchesMathExp re-asserts the init probe's verdict as a real
// test, over fresh random points the probe never saw.
func TestExp8MatchesMathExp(t *testing.T) {
	if fuseExpMode == 0 {
		t.Skip("no vector exp variant certified on this platform; scalar fallback active")
	}
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 50000; i++ {
		x := -(sigGateLo + r.Float64()*(sigGateHi-sigGateLo))
		want := math.Float64bits(math.Exp(x))
		var a, b, c, d, e, f, g, h float64
		if fuseExpMode == 1 {
			a, b, c, d, e, f, g, h = exp8FMA(x, x, x, x, x, x, x, x)
		} else {
			a, b, c, d, e, f, g, h = exp8NoFMA(x, x, x, x, x, x, x, x)
		}
		for _, got := range []float64{a, b, c, d, e, f, g, h} {
			if math.Float64bits(got) != want {
				t.Fatalf("exp8 mode %d at %g: %x, want %x", fuseExpMode, x, math.Float64bits(got), want)
			}
		}
	}
}

// TestFusedCheckInputsPanics: one test per validation branch, pinning the
// message each malformed input dies with (the satellite fix: ambiguous
// dense+sparse inputs must not be reported as dense shape mismatches).
func TestFusedCheckInputsPanics(t *testing.T) {
	p, err := CompileFused([]FusedOp{opsLoad(0), opsOp(FuseSq)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(38))
	good := randMat(r, 3, 4, 0)
	expectPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			rec := recover()
			if rec == nil {
				t.Errorf("%s: no panic, want %q", name, want)
				return
			}
			msg, _ := rec.(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want substring %q", name, msg, want)
			}
		}()
		f()
	}
	expectPanic("arity", "fused program wants 1 inputs, got 2", func() {
		FusedCell(p, []FusedInput{DenseInput(good), DenseInput(good)}, 3, 4)
	})
	expectPanic("ambiguous", "fused input 0 sets both dense and sparse operands", func() {
		FusedCell(p, []FusedInput{{D: good, C: CSRFromDense(good)}}, 3, 4)
	})
	expectPanic("dense shape", "fused dense input 0 is 3x4, want 4x3", func() {
		FusedCell(p, []FusedInput{DenseInput(good)}, 4, 3)
	})
	expectPanic("sparse shape", "fused sparse input 0 is 3x4, want 4x3", func() {
		FusedCell(p, []FusedInput{CSRInput(CSRFromDense(good))}, 4, 3)
	})
	expectPanic("empty", "fused input 0 is neither scalar nor matrix", func() {
		FusedCell(p, []FusedInput{{}}, 3, 4)
	})
}

// TestCompiledZeroAllocSteadyState: the flat templates and the
// dynamic-scalar prelude hold the zero-allocation contract after the
// first (compiling) call.
func TestCompiledZeroAllocSteadyState(t *testing.T) {
	withGOMAXPROCS(1, func() {
		r := rand.New(rand.NewSource(39))
		rows, cols := 500, 60
		x := randMat(r, rows, cols, 0)
		y := randMat(r, rows, cols, 0)
		out := NewDense(rows, cols)
		rowDst := make([]float64, rows)

		// sigchain flat cell (stages through pooled scratch + sigmoidTile).
		chain, err := CompileFused([]FusedOp{opsLoad(0), opsConst(2), opsOp(FuseMul),
			opsConst(1), opsOp(FuseAdd), opsOp(FuseSigmoid), opsLoad(0), opsOp(FuseMul),
			opsLoad(0), opsConst(3), opsOp(FuseDiv), opsOp(FuseSub)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		xIn := []FusedInput{DenseInput(x)}
		if flat := chain.kernelFor(xIn).flat; flat != "cell.sigchain" {
			t.Fatalf("sigchain not flat-compiled: %q", flat)
		}
		if a := testing.AllocsPerRun(50, func() { FusedCellInto(out, chain, xIn) }); a != 0 {
			t.Errorf("compiled sigchain FusedCellInto allocates %v per run, want 0", a)
		}

		// scaleadd flat row aggregate.
		sa, err := CompileFused([]FusedOp{opsLoad(0), opsConst(2), opsOp(FuseMul),
			opsLoad(1), opsOp(FuseAdd)}, 2)
		if err != nil {
			t.Fatal(err)
		}
		xyIn := []FusedInput{DenseInput(x), DenseInput(y)}
		sa.kernelFor(xyIn)
		if a := testing.AllocsPerRun(50, func() { FusedRowSumsInto(rowDst, sa, xyIn, rows, cols) }); a != 0 {
			t.Errorf("compiled FusedRowSumsInto allocates %v per run, want 0", a)
		}

		// Dynamic-scalar prelude: (x-y)/(s1*s2) hoists the divisor per call.
		ds, err := CompileFused([]FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseSub),
			opsLoad(2), opsLoad(3), opsOp(FuseMul), opsOp(FuseDiv)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		dsIn := []FusedInput{DenseInput(x), DenseInput(y), ScalarInput(2.5), ScalarInput(0.8)}
		if flat := ds.kernelFor(dsIn).flat; flat != "cell.scalebin" {
			t.Fatalf("derived-scalar scalebin not flat-compiled: %q", flat)
		}
		if a := testing.AllocsPerRun(50, func() { FusedCellInto(out, ds, dsIn) }); a != 0 {
			t.Errorf("compiled prelude FusedCellInto allocates %v per run, want 0", a)
		}
	})
}

// TestCompiledConstantFolding: all-constant scalar subtrees fold at compile
// time — the kernel for (x + (2*3+1)) must carry no prelude and still
// match the reference bit for bit.
func TestCompiledConstantFolding(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	x := randMat(r, 7, 11, 0)
	p, err := CompileFused([]FusedOp{opsLoad(0), opsConst(2), opsConst(3), opsOp(FuseMul),
		opsConst(1), opsOp(FuseAdd), opsOp(FuseAdd)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ins := []FusedInput{DenseInput(x)}
	if k := p.kernelFor(ins); k.nsv != 0 || len(k.pre) != 0 {
		t.Errorf("constant subtree hoisted to prelude (nsv=%d), want compile-time fold", k.nsv)
	}
	if got := FusedCell(p, ins, 7, 11); !bitsEqual(got.data, refFused(p, ins, 7, 11)) {
		t.Error("folded constants differ from reference")
	}
}
