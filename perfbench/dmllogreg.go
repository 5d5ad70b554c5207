package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dmml/internal/dml"
	"dmml/internal/la"
)

// dml-logreg: the declarative path a dmml user scripts. One DML program
// read()s the generated CSVs into dense matrices (no ReadConfig, so no
// paging); a second, compiled with Parse + Optimize so fused compiled cell
// templates run, trains logistic regression by a fixed number of gradient
// steps. Time goes to dml, la and pool only, which makes this workload the
// no-change control for data-path work in storage, ooc, compress,
// factorized and serve.
const (
	dmlRows  = 300_000 // 48 MB dense: larger than the host's per-core L2
	dmlCols  = 20
	dmlIters = 5
)

const dmlTrainSrc = `
for (i in 1:%d) {
  p = sigmoid(X %%*%% w)
  w = w - (0.5 / nrow(X)) * (t(X) %%*%% (p - y))
}
p = sigmoid(X %%*%% w)
loss = -sum(y * log(p) + (1 - y) * log(1 - p)) / nrow(X)
`

type dmlLogreg struct {
	loadSrc  string
	env      dml.Env
	train    *dml.Program
	losses   []float64
	first    *dml.EvalStats   // the first job's counts
	traced   []*dml.EvalStats // counts of the traced jobs
	loadS    float64
	compileS float64
	runS     []float64
}

func runDMLLogreg(o options, tr *tracer) (*outcome, error) {
	r := rand.New(rand.NewSource(o.seed))
	xPath := filepath.Join(o.dir, "X.csv")
	yPath := filepath.Join(o.dir, "y.csv")
	if err := writeLogregCSV(r, xPath, yPath); err != nil {
		return nil, err
	}
	w := &dmlLogreg{loadSrc: fmt.Sprintf("X = read(%q)\ny = read(%q)\n", xPath, yPath)}
	out := &outcome{sizes: map[string]any{"rows": dmlRows, "cols": dmlCols, "iterations": dmlIters}}
	if err := runTraining(o, tr, w, out); err != nil {
		return nil, err
	}
	out.detail = map[string]any{"fused_regions_per_job": w.first.FusedRegions, "fused_compiled_per_job": w.first.FusedCompiled}
	return out, nil
}

// writeLogregCSV writes X (standard normal features at three decimals, as
// exported data usually is) and 0/1 labels drawn from a planted logistic
// model.
func writeLogregCSV(r *rand.Rand, xPath, yPath string) error {
	wTrue := make([]float64, dmlCols)
	for j := range wTrue {
		wTrue[j] = r.NormFloat64()
	}
	xf, err := os.Create(xPath)
	if err != nil {
		return err
	}
	yf, err := os.Create(yPath)
	if err != nil {
		xf.Close()
		return err
	}
	xb, yb := bufio.NewWriterSize(xf, 1<<20), bufio.NewWriterSize(yf, 1<<16)
	line := make([]byte, 0, 256)
	row := make([]float64, dmlCols)
	for i := 0; i < dmlRows; i++ {
		line = line[:0]
		m := 0.0
		for j := range row {
			row[j] = math.Round(r.NormFloat64()*1000) / 1000
			m += row[j] * wTrue[j]
			if j > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendFloat(line, row[j], 'g', -1, 64)
		}
		line = append(line, '\n')
		xb.Write(line)
		if r.Float64() < 1/(1+math.Exp(-m)) {
			yb.WriteString("1\n")
		} else {
			yb.WriteString("0\n")
		}
	}
	for _, err := range []error{xb.Flush(), yb.Flush(), xf.Close(), yf.Close()} {
		if err != nil {
			return err
		}
	}
	return nil
}

// setup loads X and y through read() and compiles the training program.
func (w *dmlLogreg) setup(tr *tracer) (time.Duration, error) {
	// Release the previous repetition's matrices before loading again, so
	// only one copy is live and peak memory is that of a single load.
	w.env = nil
	settle()
	var job int64
	var root open
	if tr != nil {
		job = -1
		root = tr.begin("setup", 0, job)
	}
	env := dml.Env{}
	start := time.Now()
	var sp open
	if tr != nil {
		sp = tr.begin("dml.load", root.id, job)
	}
	loadProg, err := dml.Parse(w.loadSrc)
	if err != nil {
		return 0, err
	}
	if _, _, err := loadProg.Run(env); err != nil {
		return 0, err
	}
	if tr != nil {
		tr.end(sp)
	}
	load := time.Since(start)
	env["w"] = dml.Matrix(la.NewDense(dmlCols, 1))

	start = time.Now()
	if tr != nil {
		sp = tr.begin("dml.compile", root.id, job)
	}
	p, err := dml.Parse(fmt.Sprintf(dmlTrainSrc, dmlIters))
	if err != nil {
		return 0, err
	}
	w.train = p.Optimize(dml.ShapesFromEnv(env))
	compile := time.Since(start)
	if tr != nil {
		tr.end(sp)
		tr.end(root)
	}
	w.loadS, w.compileS = load.Seconds(), compile.Seconds()
	w.env = env
	return load + compile, nil
}

// job trains from w = 0 and records the final loss for verify.
func (w *dmlLogreg) job(id int64, tr *tracer) error {
	w.env["w"] = dml.Matrix(la.NewDense(dmlCols, 1))
	var root, sp open
	if tr != nil {
		root = tr.begin("job", 0, id)
		sp = tr.begin("dml.run", root.id, id)
	}
	start := time.Now()
	v, st, err := w.train.Run(w.env)
	if err != nil {
		return err
	}
	if tr != nil {
		w.runS = append(w.runS, time.Since(start).Seconds())
		tr.end(sp)
		tr.end(root)
	}
	loss := math.NaN()
	if v.IsScalar {
		loss = v.S
	}
	w.losses = append(w.losses, loss)
	if w.first == nil {
		w.first = st
	}
	if tr != nil {
		w.traced = append(w.traced, st)
	}
	return nil
}

// verify compares every job's final loss with the loss of the unfused plan
// of the same program on the same inputs.
func (w *dmlLogreg) verify(out *outcome) error {
	env := dml.Env{"X": w.env["X"], "y": w.env["y"], "w": dml.Matrix(la.NewDense(dmlCols, 1))}
	p, err := dml.Parse(fmt.Sprintf(dmlTrainSrc, dmlIters))
	if err != nil {
		return err
	}
	v, _, err := p.OptimizeUnfused(dml.ShapesFromEnv(env)).Run(env)
	if err != nil {
		return err
	}
	ref := v.S
	out.attempted++
	if !v.IsScalar || math.IsNaN(ref) || ref <= 0 || ref >= math.Ln2 {
		out.fail("unfused reference loss %v is not a trained logistic loss", ref)
	}
	for i, l := range w.losses {
		out.attempted++
		if !(math.Abs(l-ref) <= 1e-9*math.Abs(ref)) {
			out.fail("job %d: loss %.17g, unfused plan %.17g", i+1, l, ref)
		}
	}
	return nil
}

func (w *dmlLogreg) layers(l layers, setup, run snapDiff, spans []span, jobs int) {
	n := float64(max(jobs, 1))
	l["dml.load_s"] = w.loadS
	l["dml.compile_ms"] = w.compileS * 1e3
	l["dml.run_s"] = median(w.runS)
	l["dml.matmul_self_ms"] = float64(run.timers["dml.op.%*%"].SelfNs) / 1e6 / n
	l["dml.fused_self_ms"] = float64(run.timers["dml.op.fused.cell"].SelfNs+run.timers["dml.op.fused.rowagg"].SelfNs) / 1e6 / n
	var regions, compiled, cells, saved int64
	for _, st := range w.traced {
		regions += st.FusedRegions
		compiled += st.FusedCompiled
		cells += st.CellsAllocated
		saved += st.CellsSaved
	}
	m := float64(max(len(w.traced), 1))
	l["dml.fused_regions"] = float64(regions) / m
	l["dml.fused_compiled"] = float64(compiled) / m
	l["dml.cells_allocated"] = float64(cells) / m
	l["dml.cells_saved"] = float64(saved) / m
	l["la.flops"] = float64(run.counters["la.flops"]) / n
	l["la.matvec_calls"] = float64(run.counters["la.matvec.calls"]) / n
	l["la.vecmat_calls"] = float64(run.counters["la.vecmat.calls"]) / n
}

// splitLedger charges the time dml's own operator spans spent inside
// operators (kernel calls into la) to la, leaving dml with the
// interpreter's own time.
func (w *dmlLogreg) splitLedger(self map[string]int64, run snapDiff) {
	var ops int64
	for name, t := range run.timers {
		if strings.HasPrefix(name, "dml.op.") {
			ops += t.SelfNs
		}
	}
	self["dml"] -= ops
	self["la"] += ops
}

func (w *dmlLogreg) close() error { return nil }
