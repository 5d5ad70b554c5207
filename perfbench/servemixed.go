package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dmml/internal/la"
	dmetrics "dmml/internal/metrics"
	"dmml/internal/modeldb"
	"dmml/internal/serve"
)

// serve-mixed: an in-process serve.Server on loopback with both demo
// models, driven from 2 connections (one per core) first in a closed loop
// with a fixed pipeline depth, then in an open loop stepping through a
// ladder of fixed total rates. Throughout, a writer logs a new version of
// each model every 100 ms and reloads the server. New versions keep the
// weights, so every response has one exact expected value. Time goes to
// serve admission, batching and wire, and to la as many small ScoreRowsInto
// calls; reads run beside writes and no training layer is involved.
const (
	serveConns    = 2
	servePipeline = 16
	serveRowPool  = 1024 // distinct feature rows per model
	serveReload   = 100 * time.Millisecond
	serveBaseRate = 20_000
	serveLimit    = time.Millisecond // open-loop p99 limit for max_rate_ok
	spanSampling  = 64               // traced runs record one request span in this many
)

// serveLadder is the open loop's sequence of total request rates (1/s).
var serveLadder = []float64{10_000, 20_000, 40_000, 80_000, 160_000, 240_000, 320_000, 400_000, 480_000}

var serveModels = [2]string{serve.DemoChurnModel, serve.DemoLinModel}

type serveWorkload struct {
	seed     uint64
	rows     [2]*la.Dense // per model: serveRowPool feature rows
	expected [2][]float64 // per model: the exact score of each row
	out      *outcome
	mu       sync.Mutex // guards out's counters against the connection goroutines
}

// conn is one client connection. Request IDs count up from 1 per client,
// and request k's model and row are a pure function of (connection, k), so
// a receiver can check any response without shared state.
type conn struct {
	c    *serve.Client
	idx  uint64
	sent uint64
}

type server struct {
	store *modeldb.Store
	srv   *serve.Server
	done  chan error
	conns []*conn
}

func runServeMixed(o options, tr *tracer) (*outcome, error) {
	w := &serveWorkload{seed: uint64(o.seed)}
	out := &outcome{sizes: map[string]any{
		"conns": serveConns, "pipeline": servePipeline, "row_pool": serveRowPool,
		"reload_ms": serveReload.Milliseconds(), "ladder_per_s": serveLadder, "base_rate_per_s": serveBaseRate,
	}}
	w.out = out
	if err := w.genRows(o.seed); err != nil {
		return nil, err
	}

	setups, err := repeatSetup(func() (time.Duration, error) {
		s, took, err := w.start()
		if err == nil {
			s.stop()
		}
		return took, err
	})
	if err != nil {
		return nil, err
	}
	out.setupS = setups
	srv, _, err := w.start()
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	wr := &writer{store: srv.store, srv: srv.srv, stop: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); wr.loop() }()
	stopWriter := sync.OnceFunc(func() { close(wr.stop); wg.Wait() })
	defer stopWriter()

	ladderS := o.seconds / 2 / float64(len(serveLadder))
	if tr == nil {
		settle()
		lat, window := w.closedLoop(srv, o.seconds/2, nil)
		out.ops, out.windowS = lat, window
		ladder := w.openLadder(srv, ladderS)
		out.detail = ladder.detail()
	} else {
		settle()
		untraced, uw := w.closedLoop(srv, o.seconds/4, nil)
		settle()
		wr.setTracer(tr)
		dmetrics.Enable()
		before, rt0 := dmetrics.TakeSnapshot(), readRuntime()
		traced, tw := w.closedLoop(srv, o.seconds/4, tr)
		run, rt1 := diffSnapshots(before, dmetrics.TakeSnapshot()), readRuntime()
		dmetrics.Disable()
		wr.setTracer(nil)
		ladder := w.openLadder(srv, ladderS)
		out.ops = traced
		l := layers{}
		n := int(traced.n)
		w.layers(l, run, traced)
		goLayer(l, rt0, rt1, n)
		poolLayer(l, run, n)
		l["trace.overhead"] = (float64(untraced.n) / uw) / (float64(n) / tw)
		l["gen.lag_ms_p99"] = ladder.base.lagP99
		l["gen.open_p50_ms"] = ladder.base.p50
		l["gen.open_p99_ms"] = ladder.base.p99
		l["gen.max_rate_ok"] = ladder.maxOK
		wr.mu.Lock()
		l["serve.reload_ms"] = mean(wr.reloadMs)
		l["modeldb.log_ms"] = mean(wr.logMs)
		wr.mu.Unlock()
		out.layer = l
		out.detail = ladder.detail()
		spans := tr.snapshot()
		for _, s := range spans {
			if s.Name == "request" {
				printTree(os.Stdout, spans, s.Job)
				break
			}
		}
		for _, s := range spans {
			if s.Name == "reload" {
				printTree(os.Stdout, spans, s.Job)
				break
			}
		}
	}
	stopWriter()
	out.peakRSSMB = peakRSSMB()
	wr.mu.Lock()
	out.attempted += wr.attempted
	out.failed += wr.failed
	if wr.firstError != "" && out.firstError == "" {
		out.firstError = wr.firstError
	}
	wr.mu.Unlock()
	return out, nil
}

// genRows draws each model's feature rows and computes their exact scores
// with the same kernel the server batches through. A row's score does not
// depend on the batch it lands in: the GEMV computes each row's dot
// product alone, and the link is element-wise.
func (w *serveWorkload) genRows(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	store := modeldb.NewStore()
	if err := serve.LogDemoModels(store); err != nil {
		return err
	}
	for m, name := range serveModels {
		run, err := store.Latest(name)
		if err != nil {
			return err
		}
		link := la.LinkIdentity
		if name == serve.DemoChurnModel {
			link = la.LinkLogistic
		}
		x := la.NewDense(serveRowPool, len(run.Weights))
		for i := 0; i < serveRowPool; i++ {
			for j := range run.Weights {
				x.Set(i, j, math.Round(r.NormFloat64()*256)/256)
			}
		}
		w.rows[m] = x
		w.expected[m] = la.ScoreRowsInto(make([]float64, serveRowPool), x, run.Weights, run.Config["bias"], link)
	}
	return nil
}

// pick returns the model and row of request id on connection c.
func (w *serveWorkload) pick(c, id uint64) (model, row int) {
	z := w.seed ^ c<<56 ^ id
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(id % 2), int(z % serveRowPool)
}

func (w *serveWorkload) send(c *conn) error {
	m, r := w.pick(c.idx, c.sent+1)
	if _, err := c.c.Send(serveModels[m], w.rows[m].RowView(r)); err != nil {
		return err
	}
	c.sent++
	return nil
}

// check records one answered request and reports whether it was correct.
func (w *serveWorkload) check(c *conn, resp serve.Response) bool {
	m, r := w.pick(c.idx, resp.ID)
	ok := resp.Status == serve.StatusOK && resp.Value == w.expected[m][r]
	w.mu.Lock()
	w.out.attempted++
	if !ok {
		w.out.fail("conn %d request %d (%s row %d): status %d value %.17g, want %.17g %s",
			c.idx, resp.ID, serveModels[m], r, resp.Status, resp.Value, w.expected[m][r], resp.Msg)
	}
	w.mu.Unlock()
	return ok
}

// start brings up a server and returns once each connection has had one
// request of each model answered; the time to that point is set-up.
func (w *serveWorkload) start() (*server, time.Duration, error) {
	begin := time.Now()
	store := modeldb.NewStore()
	if err := serve.LogDemoModels(store); err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", Store: store})
	if err != nil {
		return nil, 0, err
	}
	s := &server{store: store, srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve() }()
	for i := 0; i < serveConns; i++ {
		cl, err := serve.Dial(srv.Addr().String(), 5*time.Second)
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		s.conns = append(s.conns, &conn{c: cl, idx: uint64(i)})
	}
	for _, c := range s.conns {
		for range serveModels {
			if err := w.send(c); err != nil {
				s.stop()
				return nil, 0, err
			}
			if err := c.c.Flush(); err != nil {
				s.stop()
				return nil, 0, err
			}
			resp, err := c.c.Recv()
			if err != nil {
				s.stop()
				return nil, 0, err
			}
			w.check(c, resp)
		}
	}
	return s, time.Since(begin), nil
}

// stop closes the connections, drains the server and waits for Serve.
func (s *server) stop() {
	for _, c := range s.conns {
		c.c.Close()
	}
	s.srv.Shutdown()
	<-s.done
}

// closedLoop keeps servePipeline requests in flight on every connection
// for the given time and returns the requests' latencies and the phase's
// wall time. With a tracer, one request in spanSampling is recorded as a
// span.
func (w *serveWorkload) closedLoop(s *server, seconds float64, tr *tracer) (*latHist, float64) {
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	lats := make([]*latHist, len(s.conns))
	var wg sync.WaitGroup
	for i, c := range s.conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			lats[i] = w.closedConn(c, end, tr)
		}(i, c)
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	all := newLatHist()
	for _, l := range lats {
		all.merge(l)
	}
	return all, window
}

func (w *serveWorkload) closedConn(c *conn, end time.Time, tr *tracer) *latHist {
	lat := newLatHist()
	starts := make(map[uint64]time.Time, servePipeline)
	sendOne := func() bool {
		if err := w.send(c); err != nil {
			w.lost(c, "send: %v", err)
			return false
		}
		starts[c.sent] = time.Now()
		return true
	}
	for i := 0; i < servePipeline; i++ {
		if !sendOne() {
			return lat
		}
	}
	if err := c.c.Flush(); err != nil {
		w.lost(c, "flush: %v", err)
		return lat
	}
	for len(starts) > 0 {
		resp, err := c.c.Recv()
		if err != nil {
			w.lost(c, "recv: %v", err)
			return lat
		}
		now := time.Now()
		t0, ok := starts[resp.ID]
		if !ok {
			w.lost(c, "unknown response id %d", resp.ID)
			return lat
		}
		delete(starts, resp.ID)
		w.check(c, resp)
		lat.add(ms(now.Sub(t0)))
		if tr != nil && resp.ID%spanSampling == 0 {
			tr.interval("request", 0, int64(c.idx)<<40|int64(resp.ID), t0, now)
		}
		if now.Before(end) {
			if !sendOne() {
				return lat
			}
			if err := c.c.Flush(); err != nil {
				w.lost(c, "flush: %v", err)
				return lat
			}
		}
	}
	return lat
}

// lost counts a request that got no response as failed.
func (w *serveWorkload) lost(c *conn, format string, args ...any) {
	w.mu.Lock()
	w.out.attempted++
	w.out.fail("conn %d: "+format, append([]any{c.idx}, args...)...)
	w.mu.Unlock()
}

// step is one open-loop rate of the ladder.
type step struct {
	rate     float64
	sent     int
	p50, p99 float64 // ms, from when each request was due
	lagP99   float64 // ms the generator sent late, p99
	backlog  int     // requests unanswered when sending stopped
	ok       bool
}

type ladder struct {
	steps []step
	base  step
	maxOK float64
}

func (l ladder) detail() map[string]any {
	rows := make([]map[string]any, len(l.steps))
	for i, s := range l.steps {
		rows[i] = map[string]any{"rate": s.rate, "sent": s.sent, "p50_ms": s.p50, "p99_ms": s.p99,
			"lag_p99_ms": s.lagP99, "backlog": s.backlog, "ok": s.ok}
	}
	return map[string]any{"open_ladder": rows, "open_p50_ms": l.base.p50, "open_p99_ms": l.base.p99,
		"gen_lag_ms_p99": l.base.lagP99, "max_rate_ok": l.maxOK}
}

// openLadder runs each ladder rate for stepS seconds. A step meets the
// limit when its p99, timed from when each request was due, is within
// serveLimit, the generator's own lag p99 is within it too, and the
// backlog when sending stops is no more than the limit's worth of
// requests twice over.
func (w *serveWorkload) openLadder(s *server, stepS float64) ladder {
	var l ladder
	for _, rate := range serveLadder {
		settle()
		st := w.openStep(s, rate, stepS)
		st.ok = st.p99 <= ms(serveLimit) && st.lagP99 <= ms(serveLimit) &&
			float64(st.backlog) <= 2*rate*serveLimit.Seconds()
		if st.ok {
			l.maxOK = rate
		}
		if rate == serveBaseRate {
			l.base = st
		}
		l.steps = append(l.steps, st)
	}
	return l
}

func (w *serveWorkload) openStep(s *server, rate, seconds float64) step {
	interval := time.Duration(float64(time.Second) / rate)
	nc := uint64(len(s.conns))
	t0 := time.Now().Add(time.Millisecond)
	stop := t0.Add(time.Duration(seconds * float64(time.Second)))
	// Request j of the step goes to connection j mod nc and is due at
	// t0 + j·interval, so a receiver recovers a response's due time from
	// its connection's request ID alone.
	first := make([]uint64, nc)
	for i, c := range s.conns {
		first[i] = c.sent + 1
	}
	due := func(c, id uint64) time.Time {
		return t0.Add(time.Duration((id-first[c])*nc+c) * interval)
	}
	total := int(seconds*rate) + 2
	var received atomic.Int64
	var rwg sync.WaitGroup
	tokens := make([]chan struct{}, nc)
	recvLat := make([]*latHist, nc)
	for i, c := range s.conns {
		// One token per request sent: the receiver makes exactly one Recv
		// per token, so it never waits for a response that is not coming.
		// Buffered for every request the step can send.
		tokens[i] = make(chan struct{}, total/int(nc)+2)
		recvLat[i] = newLatHist()
		rwg.Add(1)
		go func(i int, c *conn) {
			defer rwg.Done()
			for range tokens[i] {
				resp, err := c.c.Recv()
				if err != nil {
					w.lost(c, "recv: %v", err)
					return
				}
				now := time.Now()
				w.check(c, resp)
				recvLat[i].add(ms(now.Sub(due(c.idx, resp.ID))))
				received.Add(1)
			}
		}(i, c)
	}
	// One generator paces every connection. In an otherwise idle Go
	// process a timer wakes no sooner than about a millisecond (measured on
	// Linux with 2 vCPUs), far longer than the gap between requests, and
	// yielding in a spin loop starves the network poller, so the generator
	// waits in a nanosleep system call, which wakes within tens of
	// microseconds and leaves the other processor to the server.
	lags := newLatHist()
	sent := 0
	for j := uint64(0); ; j++ {
		next := t0.Add(time.Duration(j) * interval)
		if !next.Before(stop) {
			break
		}
		for {
			d := time.Until(next)
			if d <= 0 {
				break
			}
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		c := s.conns[j%nc]
		lags.add(ms(time.Since(next)))
		if err := w.send(c); err != nil {
			w.lost(c, "send: %v", err)
			break
		}
		sent++
		tokens[j%nc] <- struct{}{}
		// Flush when the next request is not yet due; requests already due
		// go out in the same write.
		if !t0.Add(time.Duration(j+1) * interval).Before(time.Now()) {
			for _, c := range s.conns {
				if err := c.c.Flush(); err != nil {
					w.lost(c, "flush: %v", err)
				}
			}
		}
	}
	for _, c := range s.conns {
		if err := c.c.Flush(); err != nil {
			w.lost(c, "flush: %v", err)
		}
	}
	backlog := sent - int(received.Load())
	for _, t := range tokens {
		close(t)
	}
	rwg.Wait()
	lats := newLatHist()
	for _, l := range recvLat {
		lats.merge(l)
	}
	return step{rate: rate, sent: sent, p50: lats.quantile(0.5), p99: lats.quantile(0.99),
		lagP99: lags.quantile(0.99), backlog: backlog}
}

// layers derives serve's per-layer metrics from the program's registry
// over the traced closed-loop phase, per request.
func (w *serveWorkload) layers(l layers, run snapDiff, lat *latHist) {
	n := float64(max(lat.n, 1))
	req := run.timers["serve.Request"]
	serverUs := 0.0
	if req.Count > 0 {
		serverUs = float64(req.TotalNs) / float64(req.Count) / 1e3
	}
	clientUs := lat.mean() * 1e3
	scoreMs := run.timerMs("serve.Score")
	l["serve.request_us_mean"] = serverUs
	l["serve.outside_us_mean"] = clientUs - serverUs
	l["serve.score_ms"] = scoreMs / n
	l["serve.batches"] = float64(run.counters["serve.batches"]) / n
	l["serve.batch_rows_mean"] = run.histMean("serve.batch.rows")
	l["serve.errors"] = float64(run.counters["serve.errors"])
	l["la.score_rows"] = float64(run.counters["la.score.rows"]) / n
	l["la.flops"] = float64(run.counters["la.flops"]) / n
	l["la.matvec_calls"] = float64(run.counters["la.matvec.calls"]) / n
	l["la.vecmat_calls"] = float64(run.counters["la.vecmat.calls"]) / n
	if clientUs > 0 {
		// The request ledger: client-observed latency = server time
		// (serve's own work and waiting, plus la scoring) + time outside
		// the server (wire, kernel, client).
		scoreUs := scoreMs * 1e3 / n
		l["ledger.unattributed_share"] = (clientUs - serverUs) / clientUs
		fmt.Printf("ledger serve-mixed: client latency %.3f us per request (closed loop, means)\n", clientUs)
		fmt.Printf("  %-14s %10.3f us  %6.2f%%\n", "serve", serverUs-scoreUs, 100*(serverUs-scoreUs)/clientUs)
		fmt.Printf("  %-14s %10.3f us  %6.2f%%\n", "la", scoreUs, 100*scoreUs/clientUs)
		fmt.Printf("  %-14s %10.3f us  %6.2f%%\n", "unattributed", clientUs-serverUs, 100*(clientUs-serverUs)/clientUs)
	}
}

// writer logs a new version of each model every serveReload and reloads
// the server, the write traffic serving runs beside.
type writer struct {
	store *modeldb.Store
	srv   *serve.Server
	stop  chan struct{}

	mu                sync.Mutex
	tr                *tracer // non-nil while the traced phase runs
	attempted, failed int64
	firstError        string
	logMs, reloadMs   []float64
	jobs              int64
}

func (wr *writer) setTracer(tr *tracer) {
	wr.mu.Lock()
	wr.tr = tr
	wr.mu.Unlock()
}

func (wr *writer) loop() {
	t := time.NewTicker(serveReload)
	defer t.Stop()
	for {
		select {
		case <-wr.stop:
			return
		case <-t.C:
			wr.reload()
		}
	}
}

func (wr *writer) reload() {
	wr.mu.Lock()
	tr := wr.tr
	wr.jobs++
	job := -wr.jobs - 1
	wr.mu.Unlock()
	var root open
	if tr != nil {
		root = tr.begin("reload", 0, job)
	}
	var errs []string
	var logMs []float64
	for _, name := range serveModels {
		run, err := wr.store.Latest(name)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		start := time.Now()
		var sp open
		if tr != nil {
			sp = tr.begin("modeldb.log", root.id, job)
		}
		_, err = wr.store.Log(modeldb.Spec{Name: name, Weights: run.Weights, Config: run.Config, Tags: run.Tags, ParentID: run.ID})
		if tr != nil {
			tr.end(sp)
		}
		logMs = append(logMs, ms(time.Since(start)))
		if err != nil {
			errs = append(errs, err.Error())
		}
	}
	var sp open
	if tr != nil {
		sp = tr.begin("serve.reload", root.id, job)
	}
	start := time.Now()
	swapped := wr.srv.Reload()
	reloadMs := ms(time.Since(start))
	if tr != nil {
		tr.end(sp)
		tr.end(root)
	}
	if swapped != len(serveModels) {
		errs = append(errs, fmt.Sprintf("reload swapped %d models, want %d", swapped, len(serveModels)))
	}
	wr.mu.Lock()
	defer wr.mu.Unlock()
	wr.attempted++
	if len(errs) > 0 {
		wr.failed++
		if wr.firstError == "" {
			wr.firstError = errs[0]
		}
	}
	if tr != nil {
		wr.logMs = append(wr.logMs, logMs...)
		wr.reloadMs = append(wr.reloadMs, reloadMs)
	}
}
