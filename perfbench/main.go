// Command perfbench is dmml's end-to-end benchmark. It drives dmml only
// through the exported functions of its packages, generates every input
// from --seed, times one workload for --seconds, checks the workload's
// outputs, and prints one JSON result as the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics, measured with the
// program's metrics registry disabled and no wrappers around any call. With
// --trace 1 it holds the per-layer metrics: the run enables the registry,
// wraps each call into a layer in a span recorded from this package, writes
// the spans to .bench_run/, prints a time ledger and one job's span tree,
// and reports how much slower the traced half ran than an untraced half.
// See README.md for the workloads and the metric definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	dmetrics "dmml/internal/metrics"
)

// layers holds per-layer metric values by name.
type layers map[string]float64

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them on every workload; a layer a workload does not use reads 0.
var perLayer = []struct{ name, unit string }{
	{"dml.load_s", "s"}, {"dml.compile_ms", "ms"}, {"dml.run_s", "s"},
	{"dml.matmul_self_ms", "ms/op"}, {"dml.fused_self_ms", "ms/op"},
	{"dml.fused_regions", "count/op"}, {"dml.fused_compiled", "count/op"},
	{"dml.cells_allocated", "count/op"}, {"dml.cells_saved", "count/op"},
	{"la.flops", "count/op"}, {"la.matvec_calls", "count/op"}, {"la.vecmat_calls", "count/op"},
	{"la.solve_ms", "ms/op"}, {"la.score_rows", "count/op"},
	{"pool.do_calls", "count/op"}, {"pool.chunks_claimed", "count/op"},
	{"pool.steal_ratio", "ratio"}, {"pool.helpers_recruited", "count/op"},
	{"opt.gd_self_ms", "ms/op"}, {"opt.gd_passes", "ratio"}, {"opt.sgd_self_ms", "ms/op"},
	{"factorized.build_ms", "ms"}, {"factorized.matvec_ms", "ms/op"}, {"factorized.vecmat_ms", "ms/op"},
	{"factorized.gram_ms", "ms/op"}, {"factorized.xty_ms", "ms/op"},
	{"factorized.matvec_calls", "count/op"}, {"factorized.vecmat_calls", "count/op"},
	{"factorized.flops_pushdown", "count/op"}, {"factorized.resident_mb", "MB"},
	{"ooc.build_s", "s"}, {"ooc.wait_ms", "ms/op"}, {"ooc.compute_ms", "ms/op"}, {"ooc.decode_ms", "ms/op"},
	{"ooc.pins", "count/op"}, {"ooc.prefetch_hit_rate", "ratio"}, {"ooc.max_resident_mb", "MB"},
	{"ooc.paged_mb", "MB"}, {"ooc.compression_ratio", "ratio"},
	{"compress.encode_ms", "ms"}, {"compress.matvec_ms", "ms/op"}, {"compress.vecmat_ms", "ms/op"},
	{"storage.hits", "count/op"}, {"storage.misses", "count/op"}, {"storage.hit_rate", "ratio"},
	{"storage.evictions", "count/op"}, {"storage.spill_reads", "count/op"}, {"storage.spill_writes", "count"},
	{"serve.request_us_mean", "us"}, {"serve.outside_us_mean", "us"}, {"serve.score_ms", "ms/op"},
	{"serve.batches", "count/op"}, {"serve.batch_rows_mean", "rows"}, {"serve.reload_ms", "ms"},
	{"modeldb.log_ms", "ms"}, {"serve.errors", "count"},
	{"go.alloc_mb", "MB/op"}, {"go.gc_cycles", "count/op"}, {"go.gc_pause_ms", "ms/op"}, {"go.gc_cpu_share", "ratio"},
	{"gen.lag_ms_p99", "ms"}, {"gen.open_p50_ms", "ms"}, {"gen.open_p99_ms", "ms"}, {"gen.max_rate_ok", "1/s"},
	{"trace.overhead", "ratio"}, {"ledger.unattributed_share", "ratio"},
}

// tailQ is the quantile op_tail_ms reports. A run completes a hundred or
// more training jobs, which leaves ten or more beyond p90. Closed-loop
// request latency has samples enough for p99, but p99 and p99.9 swing by
// several times between identical runs (millisecond stalls hit about 1% of
// requests), so serving reports p90 too and records the higher quantiles
// in meta.
const tailQ = 0.9

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dir      string // scratch directory for generated inputs and spill files
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	setupS     []float64 // one entry per set-up repetition
	ops        *latHist  // latency of every timed operation
	windowS    float64   // wall time the timed operations took
	attempted  int64
	failed     int64
	peakRSSMB  float64 // read before the untimed reference checks
	layer      layers  // traced runs only
	sizes      map[string]any
	detail     map[string]any
	firstError string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.firstError == "" {
		o.firstError = fmt.Sprintf(format, args...)
	}
}

var workloads = map[string]func(options, *tracer) (*outcome, error){
	"dml-logreg":      runDMLLogreg,
	"ooc-sgd":         runOOCSGD,
	"snowflake-train": runSnowflake,
	"serve-mixed":     runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run executes one benchmark run and returns the process exit code: 0 with
// a result line, 1 when the program under test fails, 2 on bad usage.
func run(args []string) int {
	stdout, stderr := os.Stdout, os.Stderr
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: dml-logreg, ooc-sgd, snowflake-train or serve-mixed")
	seed := fl.Int64("seed", 1, "seed every input is generated from")
	seconds := fl.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of dml-logreg, ooc-sgd, snowflake-train, serve-mixed), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}
	dir := filepath.Join(".bench_run", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := options{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir}

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	start := time.Now()
	out, err := fn(o, tr)
	dmetrics.Disable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if tr != nil {
		spanFile := filepath.Join(".bench_run", fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(spanFile); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", spanFile)
	}
	if out.firstError != "" {
		fmt.Fprintf(stderr, "perfbench: %s: first failed check: %s\n", o.workload, out.firstError)
	}

	metricsOut := map[string]any{}
	if o.traced {
		for _, m := range perLayer {
			metricsOut[m.name] = metric{out.layer[m.name], m.unit}
		}
	} else {
		metricsOut["setup_s"] = metric{median(out.setupS), "s"}
		metricsOut["op_p50_ms"] = metric{out.ops.quantile(0.5), "ms"}
		metricsOut["op_tail_ms"] = metric{out.ops.quantile(tailQ), "ms"}
		metricsOut["ops_per_s"] = metric{float64(out.ops.n) / out.windowS, "1/s"}
		metricsOut["peak_rss_mb"] = metric{out.peakRSSMB, "MB"}
	}
	meta := runMeta(o, out, time.Since(start))
	if b, err := json.Marshal(map[string]any{"meta": meta}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}
	res := map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metricsOut,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMeta records the host, the source and the run's settings and sizes.
func runMeta(o options, out *outcome, wall time.Duration) map[string]any {
	meta := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.traced,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"source_hash": sourceHash(),
		"sizes":       out.sizes,
		"attempted":   out.attempted,
		"failed":      out.failed,
		"error_share": float64(out.failed) / float64(max(out.attempted, 1)),
		"run_wall_s":  wall.Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				meta["commit"] = s.Value
			}
		}
	}
	if !o.traced {
		meta["setup_reps"] = len(out.setupS)
		meta["setup_quartiles_s"] = []float64{quantile(out.setupS, 0.25), median(out.setupS), quantile(out.setupS, 0.75)}
		meta["ops"] = out.ops.n
		meta["op_tail_quantile"] = tailQ
		qs := map[string]float64{}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 0.999} {
			qs[fmt.Sprintf("p%g", q*100)] = out.ops.quantile(q)
		}
		meta["op_quantiles_ms"] = qs
	}
	for k, v := range out.detail {
		meta[k] = v
	}
	return meta
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash identifies the program under test when the checkout carries
// no version-control metadata: a SHA-256 over every Go source and go.mod
// file outside the benchmark's own output directories.
func sourceHash() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// trainWorkload is a workload whose operation is one fixed training job.
type trainWorkload interface {
	// setup builds the program's state from the generated inputs and
	// returns how long the program took, leaving out input generation; tr
	// is non-nil on the traced repetition.
	setup(tr *tracer) (time.Duration, error)
	// job runs one training job and keeps what verify needs to check it.
	job(id int64, tr *tracer) error
	// verify checks every job's output against untimed references,
	// counting each check in out.
	verify(out *outcome) error
	// layers derives the workload's per-layer metrics from the traced set-up
	// and traced jobs.
	layers(l layers, setup, run snapDiff, spans []span, jobs int)
	close() error
}

const (
	// A run repeats set-up at least minSetups times and, while the
	// repetitions have taken less than setupBudget, up to maxSetups times;
	// setup_s is their median. Cheap set-ups thus get enough repetitions
	// for a steady median and expensive ones stay within the run.
	minSetups   = 3
	maxSetups   = 100
	setupBudget = time.Second
	minJobs     = 3
)

// repeatSetup calls once until the repetition rule above is met.
func repeatSetup(once func() (time.Duration, error)) ([]float64, error) {
	var took []float64
	var total time.Duration
	for len(took) < minSetups || (total < setupBudget && len(took) < maxSetups) {
		settle()
		d, err := once()
		if err != nil {
			return took, err
		}
		took = append(took, d.Seconds())
		total += d
	}
	return took, nil
}

// runTraining times repeated set-ups and then back-to-back jobs. A traced
// run spends the first half of its time untraced and the second half
// traced, so the two halves give trace.overhead.
func runTraining(o options, tr *tracer, w trainWorkload, out *outcome) error {
	defer w.close()
	setups, err := repeatSetup(func() (time.Duration, error) { return w.setup(nil) })
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	out.setupS = setups
	var setupDiff snapDiff
	if tr != nil {
		// One more set-up, traced, for the set-up layers' metrics.
		settle()
		dmetrics.Enable()
		before := dmetrics.TakeSnapshot()
		if _, err := w.setup(tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupDiff = diffSnapshots(before, dmetrics.TakeSnapshot())
		dmetrics.Disable()
	}
	var nextID int64
	loop := func(seconds float64, t *tracer) (*latHist, float64, error) {
		settle()
		lat := newLatHist()
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		for lat.n < minJobs || time.Now().Before(deadline) {
			nextID++
			t0 := time.Now()
			if err := w.job(nextID, t); err != nil {
				return nil, 0, err
			}
			lat.add(ms(time.Since(t0)))
		}
		return lat, time.Since(start).Seconds(), nil
	}
	if tr == nil {
		lat, window, err := loop(o.seconds, nil)
		if err != nil {
			return err
		}
		out.ops, out.windowS = lat, window
	} else {
		untraced, _, err := loop(o.seconds/2, nil)
		if err != nil {
			return err
		}
		dmetrics.Enable()
		before, rt0 := dmetrics.TakeSnapshot(), readRuntime()
		firstTraced := nextID + 1
		traced, _, err := loop(o.seconds/2, tr)
		if err != nil {
			return err
		}
		runDiff, rt1 := diffSnapshots(before, dmetrics.TakeSnapshot()), readRuntime()
		dmetrics.Disable()
		out.ops = traced
		l := layers{}
		spans := tr.snapshot()
		jobs := int(traced.n)
		w.layers(l, setupDiff, runDiff, spans, jobs)
		goLayer(l, rt0, rt1, jobs)
		poolLayer(l, runDiff, jobs)
		l["trace.overhead"] = traced.quantile(0.5) / untraced.quantile(0.5)
		self, wall, n := ledger(spans, "job")
		if s, ok := w.(interface {
			splitLedger(map[string]int64, snapDiff)
		}); ok {
			s.splitLedger(self, runDiff)
		}
		if wall > 0 {
			l["ledger.unattributed_share"] = float64(self["unattributed"]) / float64(wall)
		}
		printLedger(os.Stdout, o.workload, self, wall, n)
		printTree(os.Stdout, spans, firstTraced)
		out.layer = l
	}
	out.peakRSSMB = peakRSSMB()
	return w.verify(out)
}
