package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	dmetrics "dmml/internal/metrics"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latHist records latencies in buckets 1% wide from 1 µs to about an hour,
// so memory stays constant however many requests a run makes and every
// quantile lies within 1% of the exact order statistic.
type latHist struct {
	counts []int64
	n      int64
	sumMs  float64
}

const (
	histMinMs   = 1e-3
	histGrowth  = 1.01
	histBuckets = 2200
)

func newLatHist() *latHist { return &latHist{counts: make([]int64, histBuckets)} }

func (h *latHist) add(ms float64) {
	i := 0
	if ms > histMinMs {
		i = min(int(math.Log(ms/histMinMs)/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[i]++
	h.n++
	h.sumMs += ms
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumMs += o.sumMs
}

func (h *latHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sumMs / float64(h.n)
}

// quantile returns the q-quantile, spreading each bucket's samples evenly
// (on a log scale) across the bucket's width.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			f := (rank - float64(cum)) / float64(c)
			return histMinMs * math.Pow(histGrowth, float64(i)+f)
		}
		cum += c
	}
	return histMinMs * math.Pow(histGrowth, histBuckets)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// settle collects garbage so one phase's leftovers do not inflate the next
// phase's heap, pause and memory figures.
func settle() { runtime.GC() }

// runtimeStats is a reading of the Go runtime counters the go.* layer
// metrics are differences of.
type runtimeStats struct {
	allocBytes float64
	gcCycles   float64
	pauseNs    float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/pauses:seconds"},
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	var r runtimeStats
	r.allocBytes = float64(s[0].Value.Uint64())
	r.gcCycles = float64(s[1].Value.Uint64())
	r.gcCPU = s[2].Value.Float64()
	r.totalCPU = s[3].Value.Float64()
	// The pause histogram has no exact sum; bucket midpoints (lower bound
	// for the open last bucket) estimate it to within one bucket's width.
	h := s[4].Value.Float64Histogram()
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		v := lo
		if !math.IsInf(lo, 0) && !math.IsInf(hi, 0) {
			v = (lo + hi) / 2
		} else if math.IsInf(lo, 0) {
			v = hi
		}
		r.pauseNs += float64(c) * v * 1e9
	}
	return r
}

// goLayer fills the go.* per-layer metrics for ops operations run between
// the two readings.
func goLayer(l layers, a, b runtimeStats, ops int) {
	n := float64(max(ops, 1))
	l["go.alloc_mb"] = (b.allocBytes - a.allocBytes) / 1e6 / n
	l["go.gc_cycles"] = (b.gcCycles - a.gcCycles) / n
	l["go.gc_pause_ms"] = (b.pauseNs - a.pauseNs) / 1e6 / n
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		l["go.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// snapDiff is the change in the program's own metrics registry across one
// phase. The registry only counts while collection is enabled, which is
// the case in traced runs only. Gauges are not differenced; no per-layer
// metric reads one.
type snapDiff struct {
	counters map[string]int64
	timers   map[string]dmetrics.TimerSnapshot // Count, TotalNs, SelfNs differenced
	hists    map[string]dmetrics.HistogramSnapshot
}

func diffSnapshots(a, b dmetrics.Snapshot) snapDiff {
	d := snapDiff{
		counters: map[string]int64{},
		timers:   map[string]dmetrics.TimerSnapshot{},
		hists:    map[string]dmetrics.HistogramSnapshot{},
	}
	prevC := map[string]int64{}
	for _, c := range a.Counters {
		prevC[c.Name] = c.Value
	}
	for _, c := range b.Counters {
		d.counters[c.Name] = c.Value - prevC[c.Name]
	}
	prevT := map[string]dmetrics.TimerSnapshot{}
	for _, t := range a.Timers {
		prevT[t.Name] = t
	}
	for _, t := range b.Timers {
		p := prevT[t.Name]
		d.timers[t.Name] = dmetrics.TimerSnapshot{
			Name: t.Name, Count: t.Count - p.Count,
			TotalNs: t.TotalNs - p.TotalNs, SelfNs: t.SelfNs - p.SelfNs,
		}
	}
	prevH := map[string]dmetrics.HistogramSnapshot{}
	for _, h := range a.Histograms {
		prevH[h.Name] = h
	}
	for _, h := range b.Histograms {
		p := prevH[h.Name]
		d.hists[h.Name] = dmetrics.HistogramSnapshot{Name: h.Name, Count: h.Count - p.Count, Sum: h.Sum - p.Sum}
	}
	return d
}

func (d snapDiff) timerMs(name string) float64 { return float64(d.timers[name].TotalNs) / 1e6 }

func (d snapDiff) histMean(name string) float64 {
	h := d.hists[name]
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// poolLayer fills the pool.* metrics, which every compute workload shares.
func poolLayer(l layers, d snapDiff, ops int) {
	n := float64(max(ops, 1))
	l["pool.do_calls"] = float64(d.counters["pool.do.calls"]) / n
	claimed := d.counters["pool.chunks.claimed"]
	l["pool.chunks_claimed"] = float64(claimed) / n
	if claimed > 0 {
		l["pool.steal_ratio"] = float64(d.counters["pool.chunks.stolen"]) / float64(claimed)
	}
	l["pool.helpers_recruited"] = float64(d.counters["pool.helpers.recruited"]) / n
}
