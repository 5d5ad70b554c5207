// Package core is dmml's synthesis of the paper's survey: a cost-based
// planner for declarative ML training over data. Given a training task over
// either a joined (dense) matrix or a normalized star schema, it enumerates
// the physical plans the surveyed systems embody —
//
//   - access path: materialize the join vs. factorized learning (Orion/F),
//   - representation: dense vs. compressed linear algebra (CLA),
//   - solver: direct normal equations vs. iterative gradient descent,
//
// costs each with a flops/bytes model, picks the cheapest that fits the
// memory budget, and executes it. Explain output exposes the whole plan
// table so the choice is auditable.
package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"dmml/internal/compress"
	"dmml/internal/factorized"
	"dmml/internal/la"
	"dmml/internal/ooc"
	"dmml/internal/opt"
	"dmml/internal/storage"
)

// LossKind selects the training objective.
type LossKind int

// Loss kinds.
const (
	// SquaredLoss trains linear (ridge) regression.
	SquaredLoss LossKind = iota
	// LogisticLoss trains a binary ±1 classifier.
	LogisticLoss
)

// String implements fmt.Stringer.
func (l LossKind) String() string {
	if l == SquaredLoss {
		return "squared"
	}
	return "logistic"
}

// Task is a declarative training request.
type Task struct {
	Loss LossKind
	// L2 is the ridge penalty; required > 0 for the direct solver when the
	// design may be rank-deficient.
	L2 float64
	// MaxIter bounds iterative solvers (default 100).
	MaxIter int
	// Step is the iterative step size (default 0.1, with backtracking).
	Step float64
}

func (t Task) withDefaults() Task {
	if t.MaxIter == 0 {
		t.MaxIter = 100
	}
	if t.Step == 0 {
		t.Step = 0.1
	}
	return t
}

func (t Task) lossFn() opt.Loss {
	if t.Loss == SquaredLoss {
		return opt.Squared{}
	}
	return opt.Logistic{}
}

// Options tunes the planner.
type Options struct {
	// MemBudgetBytes caps the working-set estimate; plans whose working set
	// exceeds it pay a spill penalty. 0 = unlimited.
	MemBudgetBytes int64
	// SpillPenalty multiplies the cost of the bytes beyond the budget
	// (default 8, emulating disk-vs-memory bandwidth).
	SpillPenalty float64
	// CompressSampleRows bounds the sample used to probe the compression
	// ratio (default 2048).
	CompressSampleRows int
	// ForcePlan pins the plan choice (for ablations); empty = cost-based.
	ForcePlan string
}

func (o Options) withDefaults() Options {
	if o.SpillPenalty == 0 {
		o.SpillPenalty = 8
	}
	if o.CompressSampleRows == 0 {
		o.CompressSampleRows = 2048
	}
	return o
}

// PlanCost is one enumerated plan with its cost estimate.
type PlanCost struct {
	Name string
	// EstFlops is the modeled compute cost (flop-equivalents, including
	// spill penalties).
	EstFlops float64
	// WorkingSetBytes is the modeled resident working set.
	WorkingSetBytes int64
	Chosen          bool
}

// Result reports a planned-and-executed training run.
type Result struct {
	W         []float64
	Plan      string
	FinalLoss float64
	// Explain lists every considered plan, cheapest first.
	Explain []PlanCost
}

// choose marks the cheapest (or forced) plan and sorts the table.
func choose(plans []PlanCost, force string) (string, []PlanCost, error) {
	if len(plans) == 0 {
		return "", nil, fmt.Errorf("core: no feasible plans")
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].EstFlops < plans[j].EstFlops })
	pick := -1
	if force != "" {
		for i := range plans {
			if plans[i].Name == force {
				pick = i
				break
			}
		}
		if pick < 0 {
			return "", nil, fmt.Errorf("core: forced plan %q is not a candidate", force)
		}
	} else {
		pick = 0
	}
	plans[pick].Chosen = true
	return plans[pick].Name, plans, nil
}

// spillAdjust inflates cost when the working set exceeds the budget.
func spillAdjust(flops float64, workingSet int64, o Options) float64 {
	if o.MemBudgetBytes <= 0 || workingSet <= o.MemBudgetBytes {
		return flops
	}
	excess := float64(workingSet-o.MemBudgetBytes) / float64(workingSet)
	return flops * (1 + excess*o.SpillPenalty)
}

// TrainJoined plans and trains over an already-joined dense design matrix,
// choosing representation (dense vs. CLA-compressed) and solver (direct
// vs. iterative).
func TrainJoined(x *la.Dense, y []float64, task Task, o Options) (*Result, error) {
	task = task.withDefaults()
	o = o.withDefaults()
	n, d := x.Dims()
	if len(y) != n {
		return nil, fmt.Errorf("core: %d labels for %d rows", len(y), n)
	}

	// Probe compressibility on a sample.
	sample := x
	if n > o.CompressSampleRows {
		sample = x.Slice(0, o.CompressSampleRows, 0, d)
	}
	probe := compress.Compress(sample, compress.Options{})
	ratio := probe.CompressionRatio()

	denseBytes := int64(8 * n * d)
	comprBytes := int64(float64(denseBytes) / math.Max(ratio, 1e-9))
	iters := float64(task.MaxIter)
	matvecPair := 4 * float64(n) * float64(d) // X·w plus xᵀ·X per iteration

	var plans []PlanCost
	addPlan := func(name string, flops float64, ws int64) {
		plans = append(plans, PlanCost{Name: name, EstFlops: spillAdjust(flops, ws, o), WorkingSetBytes: ws})
	}
	if task.Loss == SquaredLoss {
		direct := float64(n)*float64(d)*float64(d) + float64(d*d*d)/3
		addPlan("dense+direct", direct, denseBytes)
	}
	addPlan("dense+iterative", iters*matvecPair, denseBytes)
	// Compressed iterative: per-op compute is comparable to dense (dictionary
	// lookups replace multiplies, at a small indirection premium), plus a
	// one-time compression pass; the win
	// is the smaller working set, which avoids the spill penalty — CLA's
	// actual value proposition.
	compressSetup := 4 * float64(n) * float64(d)
	addPlan("compressed+iterative", iters*matvecPair*1.05+compressSetup, comprBytes)
	// Paged iterative: stream raw ooc pages through a buffer pool sized to
	// the budget, one pass per loss-and-gradient evaluation. Sequential page
	// I/O per iteration is modeled as cheaper than the random-access thrash
	// the dense plan would suffer, so this is the fallback when the data
	// neither fits nor compresses.
	if o.MemBudgetBytes > 0 && denseBytes > o.MemBudgetBytes {
		excess := float64(denseBytes-o.MemBudgetBytes) / float64(denseBytes)
		ioCost := iters * matvecPair * excess * o.SpillPenalty * 0.5
		plans = append(plans, PlanCost{
			Name:            "paged+iterative",
			EstFlops:        iters*matvecPair + ioCost,
			WorkingSetBytes: o.MemBudgetBytes,
		})
	}

	name, explained, err := choose(plans, o.ForcePlan)
	if err != nil {
		return nil, err
	}

	var w []float64
	switch name {
	case "dense+direct":
		g := la.Gram(x)
		for j := 0; j < d; j++ {
			g.Set(j, j, g.At(j, j)+task.L2)
		}
		w, err = la.SolveSPD(g, la.XtY(x, y))
		if err != nil {
			return nil, fmt.Errorf("core: direct solve: %w", err)
		}
	case "dense+iterative":
		res, gerr := opt.GradientDescent(opt.DenseData{M: x}, y, task.lossFn(),
			opt.GDConfig{Step: task.Step, L2: task.L2, MaxIter: task.MaxIter, Tol: 1e-9, Backtracking: true})
		if gerr != nil {
			return nil, gerr
		}
		w = res.W
	case "compressed+iterative":
		cm := compress.Compress(x, compress.Options{CoCode: true})
		res, gerr := opt.GradientDescent(cm, y, task.lossFn(),
			opt.GDConfig{Step: task.Step, L2: task.L2, MaxIter: task.MaxIter, Tol: 1e-9, Backtracking: true})
		if gerr != nil {
			return nil, gerr
		}
		w = res.W
	case "paged+iterative":
		w, err = trainPaged(x, y, task, o)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown plan %q", name)
	}
	loss, _ := opt.LossAndGradient(opt.DenseData{M: x}, y, w, task.lossFn(), 0)
	return &Result{W: w, Plan: name, FinalLoss: loss, Explain: explained}, nil
}

// TrainNormalized plans and trains over a normalized star schema, choosing
// between factorized learning and materialize-then-train, and between the
// direct and iterative solvers.
func TrainNormalized(design *factorized.Design, y []float64, task Task, o Options) (*Result, error) {
	task = task.withDefaults()
	o = o.withDefaults()
	n, d := design.Rows(), design.Cols()
	if len(y) != n {
		return nil, fmt.Errorf("core: %d labels for %d rows", len(y), n)
	}

	iters := float64(task.MaxIter)
	// FlopsPerMatVec already models the full X·w plus xᵀ·X pair per
	// iteration, including cache-aware gather penalties along each edge.
	factIter := design.FlopsPerMatVec()
	matIter := design.FlopsPerMatVecMaterialized()
	materializeCost := 2 * float64(n) * float64(d) // write + first touch
	matBytes := int64(8 * n * d)
	factBytes := design.ResidentBytes()

	var plans []PlanCost
	addPlan := func(name string, flops float64, ws int64) {
		plans = append(plans, PlanCost{Name: name, EstFlops: spillAdjust(flops, ws, o), WorkingSetBytes: ws})
	}
	addPlan("factorized+iterative", iters*factIter, factBytes)
	addPlan("materialized+iterative", materializeCost+iters*matIter, matBytes)
	if task.Loss == SquaredLoss {
		// F-style factorized normal equations vs. materialized ones.
		addPlan("factorized+direct", design.FlopsPerGram()+float64(d*d*d)/3, factBytes)
		addPlan("materialized+direct", materializeCost+float64(n)*float64(d)*float64(d)+float64(d*d*d)/3, matBytes)
	}
	name, explained, err := choose(plans, o.ForcePlan)
	if err != nil {
		return nil, err
	}

	var w []float64
	solveDirect := func(g *la.Dense, c []float64) ([]float64, error) {
		for j := 0; j < d; j++ {
			g.Set(j, j, g.At(j, j)+task.L2)
		}
		return la.SolveSPD(g, c)
	}
	switch name {
	case "factorized+iterative":
		res, gerr := opt.GradientDescent(design, y, task.lossFn(),
			opt.GDConfig{Step: task.Step, L2: task.L2, MaxIter: task.MaxIter, Tol: 1e-9, Backtracking: true})
		if gerr != nil {
			return nil, gerr
		}
		w = res.W
	case "materialized+iterative":
		m := design.Materialize()
		res, gerr := opt.GradientDescent(opt.DenseData{M: m}, y, task.lossFn(),
			opt.GDConfig{Step: task.Step, L2: task.L2, MaxIter: task.MaxIter, Tol: 1e-9, Backtracking: true})
		if gerr != nil {
			return nil, gerr
		}
		w = res.W
	case "factorized+direct":
		w, err = solveDirect(design.Gram(), design.XtY(y))
		if err != nil {
			return nil, fmt.Errorf("core: factorized direct solve: %w", err)
		}
	case "materialized+direct":
		m := design.Materialize()
		w, err = solveDirect(la.Gram(m), la.XtY(m, y))
		if err != nil {
			return nil, fmt.Errorf("core: materialized direct solve: %w", err)
		}
	default:
		return nil, fmt.Errorf("core: unknown plan %q", name)
	}
	loss, _ := opt.LossAndGradient(design, y, w, task.lossFn(), 0)
	return &Result{W: w, Plan: name, FinalLoss: loss, Explain: explained}, nil
}

// ExplainString renders a plan table.
func ExplainString(plans []PlanCost) string {
	out := ""
	for _, p := range plans {
		mark := " "
		if p.Chosen {
			mark = "*"
		}
		out += fmt.Sprintf("%s %-24s est=%.3g flops ws=%d bytes\n", mark, p.Name, p.EstFlops, p.WorkingSetBytes)
	}
	return out
}

// trainPaged runs batch GD streaming the design matrix through a buffer pool
// bounded by the memory budget — the out-of-core execution plan.
func trainPaged(x *la.Dense, y []float64, task Task, o Options) ([]float64, error) {
	n, d := x.Dims()
	rowBytes := int64(8 * d)
	budgetRows := o.MemBudgetBytes / rowBytes
	if budgetRows < 1 {
		budgetRows = 1
	}
	// Size pages so that the pool holds a handful of them within budget.
	const targetPoolPages = 8
	pageRows := int(budgetRows / targetPoolPages)
	if pageRows < 1 {
		pageRows = 1
	}
	if pageRows > n {
		pageRows = n
	}
	dir, err := os.MkdirTemp("", "dmml-core-paged-*")
	if err != nil {
		return nil, fmt.Errorf("core: paged plan: %w", err)
	}
	defer os.RemoveAll(dir)
	// A byte budget that holds targetPoolPages full pages (always ≥ 8 bytes).
	bp, err := storage.NewBufferPoolBytes(targetPoolPages*int64(pageRows)*rowBytes, dir)
	if err != nil {
		return nil, fmt.Errorf("core: paged plan: %w", err)
	}
	// Raw pages: this plan is the fallback for data that does not compress,
	// and the cost model charges no encode pass.
	xm, err := ooc.FromDense(bp, x, ooc.Options{BlockRows: pageRows, NoCompress: true})
	if err != nil {
		return nil, fmt.Errorf("core: paged plan: %w", err)
	}
	res, err := opt.GradientDescent(xm, y, task.lossFn(),
		opt.GDConfig{Step: task.Step, L2: task.L2, MaxIter: task.MaxIter, Tol: 1e-9, Backtracking: true})
	if err = errors.Join(err, xm.Drop()); err != nil {
		return nil, fmt.Errorf("core: paged plan I/O: %w", err)
	}
	return res.W, nil
}
