package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dmml/internal/factorized"
	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

// snowflake-train: a 3-level snowflake schema (fact→customer→region,
// fact→product→category) trained without materializing the join: a fixed
// number of gradient-descent iterations over the JoinTree's pushdown
// kernels, then one ridge solve from the factorized Gram matrix and Xᵀy.
// Time goes to factorized, opt, la and pool; there are no pages, CSV or DML.
const (
	snowFactRows = 150_000
	snowGDIters  = 10
	snowNoise    = 0.1
	snowRidge    = 0.01
)

var snowGD = opt.GDConfig{Step: 0.02, MaxIter: snowGDIters, Backtracking: true}

type snowWorkload struct {
	s      *workload.Snowflake
	tree   *factorized.JoinTree
	buildS float64

	gram  *la.Dense
	xty   []float64
	gdL   []float64
	ridge [][]float64 // ridge weights per job
	iters int
	// Traced-job totals from the wrapper.
	matvecNs, vecmatNs, gramNs, xtyNs, solveNs int64
	matvecCalls                                int
}

func runSnowflake(o options, tr *tracer) (*outcome, error) {
	r := rand.New(rand.NewSource(o.seed))
	s, err := workload.GenerateSnowflake(r, workload.SnowflakeConfig{
		FactRows:  snowFactRows,
		FactFeats: 6,
		Nodes: []workload.SnowNode{
			{Rows: 2000, Feats: 10, Parent: -1}, // customer ← fact
			{Rows: 50, Feats: 30, Parent: 0},    // region ← customer
			{Rows: 3000, Feats: 8, Parent: -1},  // product ← fact
			{Rows: 100, Feats: 24, Parent: 2},   // category ← product
		},
		Task:   workload.RegressionTask,
		Noise:  snowNoise,
		Signal: 1,
	})
	if err != nil {
		return nil, err
	}
	w := &snowWorkload{s: s}
	out := &outcome{sizes: map[string]any{
		"fact_rows": snowFactRows, "joined_cols": s.TotalFeatures(), "relations": len(s.X), "gd_iterations": snowGDIters,
	}}
	if err := runTraining(o, tr, w, out); err != nil {
		return nil, err
	}
	return out, nil
}

// setup builds the join tree from the generated relations.
func (w *snowWorkload) setup(tr *tracer) (time.Duration, error) {
	nodes := make([]factorized.Node, len(w.s.X))
	var edges []factorized.Edge
	for v := range w.s.X {
		nodes[v] = factorized.Node{X: w.s.X[v], Rows: w.s.Rows[v]}
		if v > 0 {
			edges = append(edges, factorized.Edge{Parent: w.s.Parents[v], Child: v, FK: w.s.FKs[v]})
		}
	}
	var sp open
	if tr != nil {
		sp = tr.begin("factorized.NewJoinTree", 0, -1)
	}
	start := time.Now()
	tree, err := factorized.NewJoinTree(nodes, edges)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		tr.end(sp)
	}
	w.tree, w.buildS = tree, took.Seconds()
	d := tree.Cols()
	w.gram, w.xty = la.NewDense(d, d), make([]float64, d)
	return took, nil
}

// tracedTree times the pushdown kernels gradient descent calls.
type tracedTree struct {
	*factorized.JoinTree
	w           *snowWorkload
	tr          *tracer
	parent, job int64
}

func (t *tracedTree) MatVecInto(dst, v []float64) []float64 {
	sp := t.tr.begin("factorized.matvec", t.parent, t.job)
	r := t.JoinTree.MatVecInto(dst, v)
	t.w.matvecNs += int64(t.tr.end(sp))
	t.w.matvecCalls++
	return r
}

func (t *tracedTree) VecMatInto(dst, x []float64) []float64 {
	sp := t.tr.begin("factorized.vecmat", t.parent, t.job)
	r := t.JoinTree.VecMatInto(dst, x)
	t.w.vecmatNs += int64(t.tr.end(sp))
	return r
}

// job runs gradient descent over the join tree, then the ridge solve.
func (w *snowWorkload) job(id int64, tr *tracer) error {
	var data opt.BulkData = w.tree
	var root, sp open
	if tr != nil {
		root = tr.begin("job", 0, id)
		sp = tr.begin("opt.GradientDescent", root.id, id)
		data = &tracedTree{JoinTree: w.tree, w: w, tr: tr, parent: sp.id, job: id}
	}
	res, err := opt.GradientDescent(data, w.s.Y, opt.Squared{}, snowGD)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.end(sp)
		w.iters += res.Iters
	}
	w.gdL = append(w.gdL, res.History[len(res.History)-1])

	timed := func(name string, ns *int64, f func()) {
		if tr == nil {
			f()
			return
		}
		s := tr.begin(name, root.id, id)
		f()
		*ns += int64(tr.end(s))
	}
	timed("factorized.gram", &w.gramNs, func() { w.tree.GramInto(w.gram) })
	timed("factorized.xty", &w.xtyNs, func() { w.tree.XtYInto(w.xty, w.s.Y) })
	d := w.tree.Cols()
	for j := 0; j < d; j++ {
		w.gram.Set(j, j, w.gram.At(j, j)+snowRidge)
	}
	var wr []float64
	timed("la.solve", &w.solveNs, func() { wr, err = la.SolveSPD(w.gram, w.xty) })
	if err != nil {
		return err
	}
	if tr != nil {
		tr.end(root)
	}
	w.ridge = append(w.ridge, wr)
	return nil
}

// joinedRow fills row with fact row i of the join, gathered through the
// foreign keys: the reference never materializes the joined matrix.
func (w *snowWorkload) joinedRow(i int, idx []int, row []float64) {
	s := w.s
	off := 0
	for v := range s.X {
		if v == 0 {
			idx[0] = i
		} else {
			idx[v] = s.FKs[v][idx[s.Parents[v]]]
		}
		if s.X[v] == nil {
			continue
		}
		off += copy(row[off:], s.X[v].RowView(idx[v]))
	}
}

// verify checks the pushdown kernels against joined rows gathered on the
// fly, the GD losses against each other, and the ridge loss against the
// planted noise level.
func (w *snowWorkload) verify(out *outcome) error {
	tree, s := w.tree, w.s
	n, d := tree.Rows(), tree.Cols()
	r := rand.New(rand.NewSource(7))
	v := make([]float64, d)
	for j := range v {
		v[j] = r.NormFloat64()
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	mv := tree.MatVec(v)
	vm := tree.VecMat(x)
	gram := tree.Gram()
	xty := tree.XtY(s.Y)
	refMV := make([]float64, n)
	refVM := make([]float64, d)
	refXtY := make([]float64, d)
	refGram := la.NewDense(d, d)
	idx := make([]int, len(s.X))
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		w.joinedRow(i, idx, row)
		refMV[i] = la.Dot(row, v)
		la.Axpy(x[i], row, refVM)
		la.Axpy(s.Y[i], row, refXtY)
		for a := 0; a < d; a++ {
			if row[a] == 0 {
				continue
			}
			ga := refGram.RowView(a)
			la.Axpy(row[a], row, ga)
		}
	}
	check := func(what string, got, want []float64) {
		out.attempted++
		scale := 0.0
		for _, x := range want {
			scale = math.Max(scale, math.Abs(x))
		}
		for i := range want {
			if !(math.Abs(got[i]-want[i]) <= 1e-9*math.Max(scale, 1)) {
				out.fail("%s[%d] = %.17g, gathered reference %.17g", what, i, got[i], want[i])
				return
			}
		}
	}
	check("MatVec", mv, refMV)
	check("VecMat", vm, refVM)
	check("XtY", xty, refXtY)
	for a := 0; a < d; a++ {
		check("Gram row", gram.RowView(a), refGram.RowView(a))
	}
	atZero := w.gdLossAtZero()
	for i, l := range w.gdL {
		out.attempted++
		if !(math.Abs(l-w.gdL[0]) <= 1e-9*w.gdL[0] && l < atZero) {
			out.fail("job %d: GD loss %.17g, first job %.17g, zero model %.17g", i+1, l, w.gdL[0], atZero)
		}
	}
	// Squared loss is ½(m−y)², so the planted noise gives ½σ² per row.
	floor := 0.5 * snowNoise * snowNoise
	out.attempted++
	if l, _ := opt.LossAndGradient(tree, s.Y, w.ridge[0], opt.Squared{}, 0); !(l > 0.8*floor && l < 1.2*floor) {
		out.fail("ridge loss %.6g, planted noise level %.6g", l, floor)
	}
	for i, wr := range w.ridge {
		check(fmt.Sprintf("job %d ridge weights", i+1), wr, w.ridge[0])
	}
	return nil
}

// gdLossAtZero is the training loss of the all-zero model, which a
// gradient-descent job must improve on.
func (w *snowWorkload) gdLossAtZero() float64 {
	l, _ := opt.LossAndGradient(w.tree, w.s.Y, make([]float64, w.tree.Cols()), opt.Squared{}, 0)
	return l
}

func (w *snowWorkload) layers(l layers, setup, run snapDiff, spans []span, jobs int) {
	n := float64(max(jobs, 1))
	l["factorized.build_ms"] = w.buildS * 1e3
	l["factorized.matvec_ms"] = float64(w.matvecNs) / 1e6 / n
	l["factorized.vecmat_ms"] = float64(w.vecmatNs) / 1e6 / n
	l["factorized.gram_ms"] = float64(w.gramNs) / 1e6 / n
	l["factorized.xty_ms"] = float64(w.xtyNs) / 1e6 / n
	l["factorized.matvec_calls"] = float64(run.counters["factorized.matvec.calls"]) / n
	l["factorized.vecmat_calls"] = float64(run.counters["factorized.vecmat.calls"]) / n
	l["factorized.flops_pushdown"] = float64(run.counters["factorized.flops.pushdown"]) / n
	l["factorized.resident_mb"] = float64(w.tree.ResidentBytes()) / 1e6
	l["la.solve_ms"] = float64(w.solveNs) / 1e6 / n
	l["opt.gd_self_ms"] = float64(selfNs(spans, "opt.GradientDescent")) / 1e6 / n
	if w.iters > 0 {
		l["opt.gd_passes"] = float64(w.matvecCalls) / float64(w.iters)
	}
	l["la.flops"] = float64(run.counters["la.flops"]) / n
	l["la.matvec_calls"] = float64(run.counters["la.matvec.calls"]) / n
	l["la.vecmat_calls"] = float64(run.counters["la.vecmat.calls"]) / n
}

func (w *snowWorkload) close() error { return nil }
