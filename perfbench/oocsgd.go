package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dmml/internal/compress"
	"dmml/internal/la"
	"dmml/internal/ooc"
	"dmml/internal/opt"
	"dmml/internal/storage"
	"dmml/internal/workload"
)

// ooc-sgd: logistic regression by block-streaming SGD over an out-of-core
// matrix of quantized telemetry, built the way read() builds one under a
// memory budget: CLA-compressed pages with co-coding and async prefetch.
// The buffer pool holds half of the compressed pages, so every epoch
// evicts and re-reads pages from spill. Set-up is the write path
// (compress, encode, page-out) and each job is the read path (pin, decode,
// operate over compressed blocks), so a gain on one side that costs the
// other shows. The dense matrix is never held: blocks are generated and
// appended one at a time.
const (
	oocRows      = 320_000
	oocBlockRows = 4096 // read()'s default block size
	oocEpochs    = 3
)

// oocCards are the per-column cardinalities of the telemetry columns.
var oocCards = []int{
	8, 16, 4, 32, 64, 5, 9, 12, 3, 7, 24, 48, 6, 10, 2, 20,
	14, 28, 11, 40, 18, 3, 5, 36, 9, 22, 4, 13, 56, 6, 26, 8,
}

var oocSGD = opt.StreamConfig{Step: 0.002, Decay: 0.9, L2: 1e-3, Epochs: oocEpochs}

type oocWorkload struct {
	seed   int64
	dir    string
	budget int64
	y      []float64
	builds int

	bp *storage.BufferPool
	m  *ooc.Matrix

	losses      []float64
	maxResident int64
	overBudget  int
	buildS      float64
}

func runOOCSGD(o options, tr *tracer) (*outcome, error) {
	w := &oocWorkload{seed: o.seed, dir: o.dir}
	// Size the pool from the compressed footprint of this seed's data: a
	// first, untimed build with no memory pressure measures it.
	if _, err := w.build(1<<40, nil); err != nil {
		return nil, err
	}
	paged := w.m.PagedBytes()
	w.budget = paged / 2
	out := &outcome{sizes: map[string]any{
		"rows": oocRows, "cols": len(oocCards), "block_rows": oocBlockRows, "epochs": oocEpochs,
		"dense_mb": float64(w.m.DenseBytes()) / 1e6, "paged_mb": float64(paged) / 1e6, "pool_budget_mb": float64(w.budget) / 1e6,
	}}
	if err := runTraining(o, tr, w, out); err != nil {
		return nil, err
	}
	return out, nil
}

// blocks regenerates the seed's rows block by block, handing each to fn
// along with its labels: −1/+1 from a planted linear model with 5% flips.
// The model's threshold is the median margin of the first block, so every
// seed has balanced classes: the logistic loss's cost per row depends on
// the margins' signs, and an unbalanced seed would train measurably faster.
func (w *oocWorkload) blocks(fn func(x *la.Dense, y []float64) error) error {
	r := rand.New(rand.NewSource(w.seed))
	wTrue := make([]float64, len(oocCards))
	for j := range wTrue {
		wTrue[j] = r.NormFloat64() / float64(oocCards[j])
	}
	var threshold float64
	for r0 := 0; r0 < oocRows; r0 += oocBlockRows {
		n := min(oocBlockRows, oocRows-r0)
		x := workload.TelemetryMatrix(r, n, oocCards, 1.0)
		margins := la.MatVec(x, wTrue)
		if r0 == 0 {
			threshold = median(margins)
		}
		y := make([]float64, n)
		for i, m := range margins {
			if (m > threshold) != (r.Float64() < 0.05) {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		if err := fn(x, y); err != nil {
			return err
		}
	}
	return nil
}

// build pages the data into a fresh pool with the given budget, timing only
// the program's calls (AppendBlock and Finish).
func (w *oocWorkload) build(budget int64, tr *tracer) (time.Duration, error) {
	if err := w.close(); err != nil {
		return 0, err
	}
	w.builds++
	dir := filepath.Join(w.dir, fmt.Sprintf("spill-%d", w.builds))
	bp, err := storage.NewBufferPoolBytes(budget, dir)
	if err != nil {
		return 0, err
	}
	w.bp = bp
	b := ooc.NewBuilder(bp, len(oocCards), ooc.Options{
		BlockRows: oocBlockRows, Prefetch: true, CompressOpts: compress.Options{CoCode: true},
	})
	var root open
	if tr != nil {
		root = tr.begin("setup", 0, -1)
	}
	var took time.Duration
	y := make([]float64, 0, oocRows)
	err = w.blocks(func(x *la.Dense, yb []float64) error {
		y = append(y, yb...)
		var sp open
		if tr != nil {
			sp = tr.begin("ooc.append_block", root.id, -1)
		}
		start := time.Now()
		err := b.AppendBlock(x)
		took += time.Since(start)
		if tr != nil {
			tr.end(sp)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	var sp open
	if tr != nil {
		sp = tr.begin("ooc.finish", root.id, -1)
	}
	start := time.Now()
	m, err := b.Finish()
	took += time.Since(start)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		tr.end(sp)
		tr.end(root)
	}
	w.m, w.y = m, y
	return took, nil
}

func (w *oocWorkload) setup(tr *tracer) (time.Duration, error) {
	d, err := w.build(w.budget, tr)
	w.buildS = d.Seconds()
	return d, err
}

// probe samples the pool's resident bytes at every block delivery, the
// output check that memory stays within budget. It is not tracing: untraced
// runs keep it, at one locked read per block.
type probe struct {
	*ooc.Matrix
	w *oocWorkload
}

func (p probe) ForEachBlock(f func(opt.RowBlock) error) error {
	return p.Matrix.ForEachBlock(func(b opt.RowBlock) error {
		rb := p.w.bp.ResidentBytes()
		if rb > p.w.maxResident {
			p.w.maxResident = rb
		}
		if rb > p.w.budget {
			p.w.overBudget++
		}
		return f(b)
	})
}

// tracedBlocks records, per block, the time the optimizer waited for the
// block (ooc: pin, decode, prefetch hand-off) and the time the optimizer's
// callback ran, with the kernel calls on the block inside it.
type tracedBlocks struct {
	probe
	tr     *tracer
	parent int64
	job    int64
}

func (t *tracedBlocks) ForEachBlock(f func(opt.RowBlock) error) error {
	last := time.Now()
	err := t.probe.ForEachBlock(func(b opt.RowBlock) error {
		enter := time.Now()
		t.tr.interval("ooc.wait", t.parent, t.job, last, enter)
		cb := t.tr.begin("opt.sgd.block", t.parent, t.job)
		err := f(&tracedRowBlock{RowBlock: b, t: t, parent: cb.id})
		t.tr.end(cb)
		last = time.Now()
		return err
	})
	t.tr.interval("ooc.wait", t.parent, t.job, last, time.Now())
	return err
}

// tracedRowBlock times the operate-over-compressed kernels on one block.
// ooc's VecMatAccum does not pass through compress's registry timer, so
// the wrapper is the only place both kernels are timed alike.
type tracedRowBlock struct {
	opt.RowBlock
	t      *tracedBlocks
	parent int64
}

func (b *tracedRowBlock) MatVecInto(dst, v []float64) []float64 {
	sp := b.t.tr.begin("compress.matvec", b.parent, b.t.job)
	r := b.RowBlock.MatVecInto(dst, v)
	b.t.tr.end(sp)
	return r
}

func (b *tracedRowBlock) VecMatAccum(out, x []float64) {
	sp := b.t.tr.begin("compress.vecmat", b.parent, b.t.job)
	b.RowBlock.VecMatAccum(out, x)
	b.t.tr.end(sp)
}

func (w *oocWorkload) job(id int64, tr *tracer) error {
	var data opt.BlockData = probe{Matrix: w.m, w: w}
	var root, sp open
	if tr != nil {
		root = tr.begin("job", 0, id)
		sp = tr.begin("opt.StreamingSGD", root.id, id)
		data = &tracedBlocks{probe: probe{Matrix: w.m, w: w}, tr: tr, parent: sp.id, job: id}
	}
	res, err := opt.StreamingSGD(data, w.y, opt.Logistic{}, oocSGD)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.end(sp)
		tr.end(root)
	}
	w.losses = append(w.losses, res.History[len(res.History)-1])
	return nil
}

// verify compares every job's final loss with a run over raw
// (uncompressed) pages of the same data — CLA is lossless, so only the
// summation order may differ — and checks residency against the budget.
func (w *oocWorkload) verify(out *outcome) error {
	out.attempted++
	if w.overBudget > 0 {
		out.fail("pool resident bytes exceeded the %d-byte budget at %d block deliveries (max %d)", w.budget, w.overBudget, w.maxResident)
	}
	out.attempted++
	if w.m.CompressedBlocks() == 0 {
		out.fail("no block kept the compressed layout")
	}
	if err := w.close(); err != nil {
		return err
	}
	dir := filepath.Join(w.dir, "reference")
	bp, err := storage.NewBufferPoolBytes(1<<40, dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := ooc.NewBuilder(bp, len(oocCards), ooc.Options{BlockRows: oocBlockRows, NoCompress: true})
	if err := w.blocks(func(x *la.Dense, _ []float64) error { return b.AppendBlock(x) }); err != nil {
		return err
	}
	m, err := b.Finish()
	if err != nil {
		return err
	}
	defer m.Drop()
	res, err := opt.StreamingSGD(m, w.y, opt.Logistic{}, oocSGD)
	if err != nil {
		return err
	}
	ref := res.History[len(res.History)-1]
	out.attempted++
	if !(ref > 0 && ref < math.Ln2) {
		out.fail("raw-page reference loss %v is not a trained logistic loss", ref)
	}
	for i, l := range w.losses {
		out.attempted++
		if !(math.Abs(l-ref) <= 1e-9*ref) {
			out.fail("job %d: loss %.17g, raw-page reference %.17g", i+1, l, ref)
		}
	}
	return nil
}

func (w *oocWorkload) layers(l layers, setup, run snapDiff, spans []span, jobs int) {
	n := float64(max(jobs, 1))
	l["ooc.build_s"] = w.buildS
	l["ooc.wait_ms"] = float64(totalNs(spans, "ooc.wait")) / 1e6 / n
	l["ooc.compute_ms"] = float64(totalNs(spans, "opt.sgd.block")) / 1e6 / n
	l["ooc.decode_ms"] = (run.timerMs("ooc.block.decode") + run.timerMs("ooc.block.decompress")) / n
	l["ooc.pins"] = float64(run.counters["ooc.blocks.pins"]) / n
	if hm := run.counters["ooc.prefetch.hits"] + run.counters["ooc.prefetch.misses"]; hm > 0 {
		l["ooc.prefetch_hit_rate"] = float64(run.counters["ooc.prefetch.hits"]) / float64(hm)
	}
	l["ooc.max_resident_mb"] = float64(w.maxResident) / 1e6
	l["ooc.paged_mb"] = float64(w.m.PagedBytes()) / 1e6
	l["ooc.compression_ratio"] = float64(w.m.DenseBytes()) / float64(w.m.PagedBytes())
	l["compress.encode_ms"] = setup.timerMs("compress.Compress")
	l["compress.matvec_ms"] = float64(totalNs(spans, "compress.matvec")) / 1e6 / n
	l["compress.vecmat_ms"] = float64(totalNs(spans, "compress.vecmat")) / 1e6 / n
	hits, misses := run.counters["storage.bufferpool.hits"], run.counters["storage.bufferpool.misses"]
	l["storage.hits"] = float64(hits) / n
	l["storage.misses"] = float64(misses) / n
	if hits+misses > 0 {
		l["storage.hit_rate"] = float64(hits) / float64(hits+misses)
	}
	l["storage.evictions"] = float64(run.counters["storage.bufferpool.evictions"]) / n
	l["storage.spill_reads"] = float64(run.counters["storage.bufferpool.spill.reads"]) / n
	l["storage.spill_writes"] = float64(setup.counters["storage.bufferpool.spill.writes"])
	l["opt.sgd_self_ms"] = float64(selfNs(spans, "opt.StreamingSGD")+selfNs(spans, "opt.sgd.block")) / 1e6 / n
	l["la.flops"] = float64(run.counters["la.flops"]) / n
	l["la.matvec_calls"] = float64(run.counters["la.matvec.calls"]) / n
	l["la.vecmat_calls"] = float64(run.counters["la.vecmat.calls"]) / n
}

// close drops the current matrix's pages and spill files.
func (w *oocWorkload) close() error {
	if w.m == nil {
		return nil
	}
	err := w.m.Drop()
	w.m = nil
	os.RemoveAll(filepath.Join(w.dir, fmt.Sprintf("spill-%d", w.builds)))
	return err
}
