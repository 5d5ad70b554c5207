package dml

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dmml/internal/la"
	"dmml/internal/opt"
)

// cellSpecials are the values the cell kernels treat specially: signed
// zeros, infinities, NaN, the ±35 sigmoid saturation region, both edges of
// the vectorized exp gate (|m| ∈ [2^-28, 700)), and subnormals.
var cellSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	35, -35, 1, -1, 0.5, 2, -2.5,
	0x1p-28, -0x1p-28, math.Nextafter(0x1p-28, 0), -math.Nextafter(0x1p-28, 0),
	math.Nextafter(0x1p-28, 1), 700, -700, math.Nextafter(700, 0), -math.Nextafter(700, 0),
	math.Nextafter(700, 1000), 745.2, -745.2,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64,
}

// cellShapes straddle the fused tile width (512 cells) and la's parallel
// cutoff (2^18 work units at two per cell, so 2^17 cells): sizes on both
// sides of each run the serial and the pool-split sweep, the latter only
// when GOMAXPROCS > 1 (run with -cpu 1,2).
var cellShapes = [][2]int{{1, 1}, {1, 511}, {512, 1}, {19, 27}, {1<<17 - 1, 1}, {1 << 16, 3}}

// cellData fills a rows×cols matrix: a leading run of every special value,
// then random values of mixed magnitude with a special value every 37th
// cell, so the 8-lane sigmoid sees both all-in-gate and mixed groups.
func cellData(r *rand.Rand, rows, cols int) *la.Dense {
	m := la.NewDense(rows, cols)
	d := m.RawData()
	for i := range d {
		switch {
		case i < len(cellSpecials):
			d[i] = cellSpecials[i]
		case i%37 == 0:
			d[i] = cellSpecials[r.Intn(len(cellSpecials))]
		default:
			d[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
		}
	}
	return m
}

// sameCell reports bitwise equality, counting any two NaNs as equal: Go
// does not specify NaN sign or payload, and on amd64 they depend on operand
// order, which the compiler may commute.
func sameCell(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// Every element-wise operator the evaluator runs outside a fused region
// must agree bit for bit with an independent per-cell loop over math.*,
// math.Pow and opt.Sigmoid — the scalar reference fused-vs-unfused fuzzing
// cannot provide now that both plans share the tile kernels.
func TestUnfusedCellwiseMatchesScalar(t *testing.T) {
	unary := map[string]func(float64) float64{
		"sigmoid(X)": opt.Sigmoid, "exp(X)": math.Exp, "log(X)": math.Log,
		"sqrt(X)": math.Sqrt, "abs(X)": math.Abs, "-X": func(x float64) float64 { return -x },
	}
	binary := map[string]func(a, b float64) float64{
		"+": func(a, b float64) float64 { return a + b },
		"-": func(a, b float64) float64 { return a - b },
		"*": func(a, b float64) float64 { return a * b },
		"/": func(a, b float64) float64 { return a / b },
		"^": math.Pow,
	}
	r := rand.New(rand.NewSource(7))
	for _, sh := range cellShapes {
		rows, cols := sh[0], sh[1]
		x, y := cellData(r, rows, cols), cellData(r, rows, cols)
		// Y reversed, so specials meet other specials and random values.
		yd := y.RawData()
		for i, j := 0, len(yd)-1; i < j; i, j = i+1, j-1 {
			yd[i], yd[j] = yd[j], yd[i]
		}
		check := func(src string, env Env, ref func(i int) float64) {
			t.Helper()
			v, _, err := mustParse(t, src).Run(env)
			if err != nil {
				t.Fatalf("%dx%d %s: %v", rows, cols, src, err)
			}
			if v.IsScalar || v.M.Rows() != rows || v.M.Cols() != cols {
				t.Fatalf("%dx%d %s: got %v-shaped result", rows, cols, src, v)
			}
			for i, got := range v.M.RawData() {
				if want := ref(i); !sameCell(got, want) {
					t.Fatalf("%dx%d %s: cell %d (x=%g y=%g s=%g) = %g (%#x), scalar reference %g (%#x)",
						rows, cols, src, i, x.RawData()[i], yd[i], env["s"].S,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		xd := x.RawData()
		env := Env{"X": Matrix(x), "Y": Matrix(y)}
		for src, f := range unary {
			check(src, env, func(i int) float64 { return f(xd[i]) })
		}
		for op, f := range binary {
			check("X "+op+" Y", env, func(i int) float64 { return f(xd[i], yd[i]) })
			for _, s := range cellSpecials {
				env := Env{"X": Matrix(x), "s": Scalar(s)}
				check("X "+op+" s", env, func(i int) float64 { return f(xd[i], s) })
				check("s "+op+" X", env, func(i int) float64 { return f(s, xd[i]) })
			}
		}
	}
}

// gdAllocSrc is the dml-logreg training loop at test scale.
const gdAllocSrc = `
for (i in 1:3) {
  p = sigmoid(X %*% w)
  w = w - (0.5 / nrow(X)) * (t(X) %*% (p - y))
}
p = sigmoid(X %*% w)
loss = -sum(y * log(p) + (1 - y) * log(1 - p)) / nrow(X)
`

// Heap bytes per GD run are bounded by the cells the evaluator reports
// materializing, plus a small fixed slack for interpreter bookkeeping. A
// hidden copy — a Col(0) of a 20480-row vector, a kernel result copied into a
// second output, a Clone before an element-wise overwrite of something the
// count misses — costs 160 KB per occurrence and breaks the bound.
func TestUnfusedGDAllocations(t *testing.T) {
	// 20480 rows make a column vector exactly 20 heap pages, so the large
	// allocations carry no size-class rounding and the slack stays small.
	const rows, cols = 20_480, 20
	const slackBytes = 64 << 10
	r := rand.New(rand.NewSource(3))
	x, y := la.NewDense(rows, cols), la.NewDense(rows, 1)
	for i, d := 0, x.RawData(); i < len(d); i++ {
		d[i] = r.NormFloat64()
	}
	for i, d := 0, y.RawData(); i < len(d); i++ {
		d[i] = float64(r.Intn(2))
	}
	newEnv := func() Env {
		return Env{"X": Matrix(x), "y": Matrix(y), "w": Matrix(la.NewDense(cols, 1))}
	}
	src := mustParse(t, gdAllocSrc)
	shapes := ShapesFromEnv(newEnv())
	for name, prog := range map[string]*Program{
		"Optimize": src.Optimize(shapes), "OptimizeUnfused": src.OptimizeUnfused(shapes),
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := prog.Run(newEnv()); err != nil { // warm pools and caches
				t.Fatal(err)
			}
			// The minimum over a few runs discards bytes a stray background
			// allocation (GC, runtime bookkeeping) adds to one of them.
			best, cells := uint64(math.MaxUint64), int64(0)
			for rep := 0; rep < 3; rep++ {
				env := newEnv()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, st, err := prog.Run(env)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				best, cells = min(best, after.TotalAlloc-before.TotalAlloc), st.CellsAllocated
			}
			limit := uint64(8*cells) + slackBytes
			t.Logf("GOMAXPROCS=%d: %d bytes for %d cells (limit %d)", runtime.GOMAXPROCS(0), best, cells, limit)
			if best > limit {
				t.Errorf("GD run allocated %d bytes, want ≤ 8×%d cells + %d slack = %d",
					best, cells, slackBytes, limit)
			}
		})
	}
}
