package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one job or request share Job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Job    int64  `json:"job"`
	Name   string `json:"name"`  // <module>.<call>; "job" and "request" are roots
	Start  int64  `json:"start"` // ns since the tracer started
	End    int64  `json:"end"`
}

// layer is the module a span's time is charged to: the name's prefix up to
// the first dot. Root spans ("job", "request") carry the time no wrapped
// call accounts for.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "unattributed"
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer means tracing is off: callers then use no wrappers.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; end records it.
type open struct {
	id, parent, job int64
	name            string
	start           time.Time
}

func (t *tracer) begin(name string, parent, job int64) open {
	return open{id: t.ids.Add(1), parent: parent, job: job, name: name, start: time.Now()}
}

// end records o as ending now and returns its duration.
func (t *tracer) end(o open) time.Duration {
	now := time.Now()
	t.add(o, o.start, now)
	return now.Sub(o.start)
}

// add records o over an explicit interval.
func (t *tracer) add(o open, start, end time.Time) {
	s := span{ID: o.id, Parent: o.parent, Job: o.job, Name: o.name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// interval records a span over [start, end] with a fresh id.
func (t *tracer) interval(name string, parent, job int64, start, end time.Time) {
	t.add(open{id: t.ids.Add(1), parent: parent, job: job, name: name}, start, end)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger splits the wall time of root spans named root into the self time
// of each layer: a span's self time is its duration minus its children's.
// Σ layers = wall, and the "unattributed" layer is what no wrapped call
// covers. It returns ns per layer, total wall ns and the number of roots.
func ledger(spans []span, root string) (map[string]int64, int64, int) {
	roots := map[int64]bool{}
	var wall int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			roots[s.Job] = true
			wall += s.End - s.Start
		}
	}
	childNs := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 && roots[s.Job] {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		if roots[s.Job] {
			self[s.layer()] += s.End - s.Start - childNs[s.ID]
		}
	}
	return self, wall, len(roots)
}

// printLedger writes the ledger as one line per layer, largest first.
func printLedger(w io.Writer, workload string, self map[string]int64, wall int64, n int) {
	if n == 0 || wall == 0 {
		return
	}
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "ledger %s: wall %.3f ms per op over %d ops = Σ layer self time\n",
		workload, float64(wall)/1e6/float64(n), n)
	for _, k := range names {
		fmt.Fprintf(w, "  %-14s %10.3f ms  %6.2f%%\n", k, float64(self[k])/1e6/float64(n), 100*float64(self[k])/float64(wall))
	}
}

// printTree writes the span tree of one job, folding siblings of the same
// name into one line with their count.
func printTree(w io.Writer, spans []span, job int64) {
	kids := map[int64][]span{}
	var roots []span
	for _, s := range spans {
		if s.Job != job {
			continue
		}
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var walk func(group []span, depth int)
	walk = func(group []span, depth int) {
		var order []string
		byName := map[string][]span{}
		for _, s := range group {
			if _, ok := byName[s.Name]; !ok {
				order = append(order, s.Name)
			}
			byName[s.Name] = append(byName[s.Name], s)
		}
		for _, name := range order {
			ss := byName[name]
			var total, child int64
			var grand []span
			for _, s := range ss {
				total += s.End - s.Start
				for _, c := range kids[s.ID] {
					child += c.End - c.Start
				}
				grand = append(grand, kids[s.ID]...)
			}
			fmt.Fprintf(w, "  %s%-*s x%-5d total %9.3f ms  self %9.3f ms\n",
				strings.Repeat("  ", depth), 28-2*depth, name, len(ss), float64(total)/1e6, float64(total-child)/1e6)
			walk(grand, depth+1)
		}
	}
	fmt.Fprintf(w, "span tree of job %d:\n", job)
	walk(roots, 0)
}

// selfNs sums the self time of every span named name.
func selfNs(spans []span, name string) int64 {
	childNs := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	var t int64
	for _, s := range spans {
		if s.Name == name {
			t += s.End - s.Start - childNs[s.ID]
		}
	}
	return t
}

// totalNs sums the duration of every span named name.
func totalNs(spans []span, name string) int64 {
	var t int64
	for _, s := range spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}
