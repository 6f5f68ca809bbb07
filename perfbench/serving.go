package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"clapf/internal/feedback"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/retrieval"
	"clapf/internal/store"
)

// Phase is one stretch of open-loop load and its outcomes.
type Phase struct {
	Name string
	Ops  []Op
	T0   time.Time
	Out  []Sample
}

func (p *Phase) exchanges() []Exchange { return exchanges(p.T0, p.Ops, p.Out) }

// runPhase sends ops from workers goroutines. With rp set (the traced
// run) each request is a "request" span, request ids start at ridBase and
// the cache mirror follows the requests as they are sent; the handler's
// layer calls are replayed after the load, under "replay" spans, when
// timed is set.
func runPhase(name string, c *Client, ops []Op, workers int, rp *Replayer, ridBase int, timed bool) *Phase {
	p := &Phase{Name: name, Ops: ops, T0: time.Now()}
	p.Out = runOpenLoop(ops, workers, func(i int) Sample {
		rid := ridBase + i
		if rp == nil {
			return c.do(rid, &ops[i])
		}
		rp.dispatch(rid, &ops[i])
		start := rp.t.now()
		s := c.do(rid, &ops[i])
		rp.t.add(Span{Req: int64(rid), Name: "request", Start: start, End: rp.t.now()})
		return s
	})
	if rp != nil {
		rp.replayPhase(p, ridBase, timed)
	}
	return p
}

// servingRun holds what every serving invocation shares.
type servingRun struct {
	cfg     *Config
	wl      Workload
	seed    uint64
	dir     string
	in      *ServingInputs
	workers int
	warm    []Op
	nominal []Op
	ladder  [][]Op
	rep     *Report
	failed  int
	sent    int
}

func runServing(cfg *Config, wl Workload, seed uint64, seconds float64, traced bool, dir string) (*Report, error) {
	r := &servingRun{cfg: cfg, wl: wl, seed: seed, dir: dir, rep: newReport(traced)}
	r.workers = cfg.Workers
	in, err := makeServingInputs(cfg.World, seed, dir, wl.Target == "exact")
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	r.in = in
	r.rep.set("datagen.generate_s", in.GenSecs, 0)

	rng := mathx.NewRNG(seed ^ 0x5bd1e995)
	users := uniformUsers(cfg.World.Users)
	if wl.Users == "activity" {
		users = activityUsers(in.Train)
	}
	sch := newScheduler(wl, in.Train, users)
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	r.warm = sch.schedule(rng, wl.Rate, secs(cfg.WarmupSeconds))
	r.nominal = sch.schedule(rng, wl.Rate, secs(seconds*cfg.NominalShare))
	step := secs(seconds * (1 - cfg.NominalShare) / float64(len(wl.Ladder)))
	for _, rate := range wl.Ladder {
		r.ladder = append(r.ladder, sch.schedule(rng, rate, step))
	}

	st, err := r.setups()
	if err != nil {
		return nil, err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	c := newClient(st.Front, r.workers, cfg.K, false)
	defer c.Close()

	runtime.GC()
	warm := runPhase("warmup", c, r.warm, r.workers, nil, 0, false)
	runtime.GC()
	var heap *heapWatch
	var gc1, gc2 cpuTimes
	if traced {
		gc1 = readCPU()
	} else {
		heap = watchHeap()
	}
	nominal := runPhase("nominal", c, r.nominal, r.workers, nil, 0, false)
	if traced {
		gc2 = readCPU()
	}
	phases := []*Phase{warm, nominal}
	lat := latenciesMs(nominal.Ops, nominal.Out, nil)
	p50 := percentile(lat, 0.5)
	r.rep.timing("p50_ms (all requests)", lat, "ms")
	r.rep.timing("rec_p50_ms/rec_p99_ms", latenciesMs(nominal.Ops, nominal.Out, isRead), "ms")
	r.rep.timing("ack_p50_ms/ack_p99_ms", latenciesMs(nominal.Ops, nominal.Out, isWrite), "ms")
	late := latenessMs(nominal.Ops, nominal.Out)
	r.rep.timing("gen.late_ms", late, "ms")
	if v, ok := percentileWithSupport(late, 0.99); ok {
		r.rep.set("gen.late_p99_ms", v, len(late))
	}

	if !traced {
		r.rep.set("p50_ms", p50, len(lat))
		r.rep.set("p90_ms", percentile(lat, 0.9), len(lat))
		r.rep.set("peak_heap_mb", heap.PeakMB(), 0)
		// The highest passing step counts, and the ladder climbs past a
		// failed step: a stall on a shared machine can fail a step below
		// the knee, but no stall makes an overloaded step pass. It stops
		// at a step whose backlog grew beyond four times the limit, since
		// every later step is more overloaded still.
		best := 0.0
		for i, ops := range r.ladder {
			p := runPhase(fmt.Sprintf("ladder-%g", r.wl.Ladder[i]), c, ops, r.workers, nil, 0, false)
			phases = append(phases, p)
			s := judgeStep(r.wl.Ladder[i], p.Ops, p.Out, r.wl.LimitMs)
			r.rep.note("ladder %6g/s  p%g %.3f ms  last-tenth late %.3f ms  failed %d  n=%d  pass=%v",
				s.Rate, s.TailQ*100, s.TailMs, s.LastLate, s.Failed, s.N, s.Pass)
			if s.Pass {
				best = s.Rate
			} else if s.LastLate > 4*r.wl.LimitMs {
				break
			}
		}
		r.rep.note("rec_max_rps %g", best)
	} else {
		r.rep.set("runtime.gc_cpu_frac", (gc2.gc-gc1.gc)/(gc2.total-gc1.total), 0)
	}
	if err := r.check(st, phases, stride(len(r.nominal))); err != nil {
		return nil, err
	}
	if !traced {
		r.finish()
		return r.rep, nil
	}
	st.Close()
	st = nil
	if err := r.traced(p50); err != nil {
		return nil, err
	}
	r.finish()
	return r.rep, nil
}

func isRead(op Op) bool  { return op.Kind != opWrite }
func isWrite(op Op) bool { return op.Kind == opWrite }

// stride spaces about 1,000 reference comparisons over a phase of n ops.
func stride(n int) int {
	if n < 1000 {
		return 1
	}
	return n / 1000
}

func (r *servingRun) finish() {
	r.rep.Attempted, r.rep.Failed = r.sent, r.failed
}

// setups sets the program up the workload's Setups times, keeps the last stack and
// reports the median set-up time. Each set-up starts from a collected heap,
// as a fresh process would, so none pays for the garbage of the one before.
func (r *servingRun) setups() (*Stack, error) {
	var times []float64
	var st *Stack
	for i := 0; i < r.wl.Setups; i++ {
		if st != nil {
			st.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		st, err = setupStack(r.wl.Target, r.in, filepath.Join(r.dir, fmt.Sprintf("wal-%d", i)), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.rep.set("setup_s", median(times), len(times))
	r.rep.note("setup_s runs %v", times)
	return st, nil
}

// check validates the answers of a stack's phases, counts attempts and
// failures, records quality, and for feedback-rw requires the log to
// replay every acked event.
func (r *servingRun) check(st *Stack, phases []*Phase, refStride int) error {
	ref := mf.Params(r.in.Model)
	if r.wl.Target == "exact" {
		// The exact reference scores the served float32 parameters,
		// mapped again independently of the server's own load.
		mm, err := store.LoadMapped(r.in.F32Path)
		if err != nil {
			return err
		}
		defer mm.Close()
		ref = mm.Factors()
	}
	c := &ServingCheck{K: r.cfg.K, Train: r.in.Train, Ref: ref, FoldInReg: st.Servers[0].FoldInReg,
		Identity: r.wl.Target == "exact"}
	var all []Exchange
	for _, p := range phases {
		all = append(all, p.exchanges()...)
		for _, s := range p.Out {
			r.sent++
			if s.failed() {
				r.failed++
			}
		}
	}
	c.collectAcks(all)
	for _, p := range phases {
		s := 0
		if p.Name == "nominal" {
			s = refStride
		}
		c.checkReads(p.exchanges(), s)
	}
	if st.WAL != nil {
		var evs []feedback.Event
		if err := st.WAL.Replay(func(ev feedback.Event) error { evs = append(evs, ev); return nil }); err != nil {
			c.problem("replaying the feedback log: %v", err)
		} else if err := checkAcksReplayed(c.Acks, evs); err != nil {
			c.problem("%v", err)
		}
	}
	for _, p := range c.Problems {
		r.rep.problem("%s", p)
	}
	quality := math.NaN()
	if c.RecallN > 0 {
		quality = c.RecallSum / float64(c.RecallN)
		r.rep.note("recall_at_10 %.6f  n=%d  (identical to the exact reference: %d)", quality, c.RecallN, c.Identical)
	}
	r.rep.note("degraded_frac %.6f  n=%d", frac(c.Degraded, c.Answers), c.Answers)
	if r.rep.Traced {
		if st.Router != nil {
			r.rep.set("cluster.degraded_frac", frac(c.Degraded, c.Answers), c.Answers)
		}
	} else {
		r.rep.set("quality", quality, c.RecallN)
	}
	return nil
}

// cpuTimes is a runtime/metrics reading of GC and total CPU seconds.
type cpuTimes struct{ gc, total float64 }

// readCPU reads the runtime's CPU-class estimates. The runtime refreshes
// them at the end of each GC cycle, so readCPU completes one first; its
// own cost is a few milliseconds against the seconds a phase lasts.
func readCPU() cpuTimes {
	runtime.GC()
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// traced replays the warm-up and nominal schedules on a fresh, traced
// set-up and derives the per-layer metrics. untracedP50 is the same
// schedule's untraced median.
func (r *servingRun) traced(untracedP50 float64) error {
	var index *retrieval.Index
	if r.wl.Target == "exact" {
		t0 := time.Now()
		mm, err := store.LoadMapped(r.in.F32Path)
		if err != nil {
			return err
		}
		if err := mm.Verify(); err != nil {
			return err
		}
		r.rep.set("store.load_s", time.Since(t0).Seconds(), 1)
		mm.Close()
	} else {
		t0 := time.Now()
		m, err := store.LoadFile(r.in.F64Path)
		if err != nil {
			return err
		}
		r.rep.set("store.load_s", time.Since(t0).Seconds(), 1)
		t0 = time.Now()
		if index, err = retrieval.BuildIVF(m, retrieval.Config{}); err != nil {
			return err
		}
		r.rep.set("retrieval.build_s", time.Since(t0).Seconds(), 1)
	}
	var shadow *feedback.WAL
	if r.wl.Target == "feedback" {
		var err error
		if shadow, _, err = feedback.OpenWAL(filepath.Join(r.dir, "shadow-wal"), walConfig(nil)); err != nil {
			return err
		}
		defer shadow.Close()
	}

	tr := newTracer()
	walDir := filepath.Join(r.dir, "wal-traced")
	st, err := setupStack(r.wl.Target, r.in, walDir, tr)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	rp, err := newReplayer(tr, r.cfg.K, st, index, shadow)
	if err != nil {
		return err
	}
	c := newClient(st.Front, r.workers, r.cfg.K, true)
	defer c.Close()
	warm := runPhase("warmup", c, r.warm, r.workers, rp, 0, false)
	mid := readCounters(st)
	nominal := runPhase("nominal", c, r.nominal, r.workers, rp, len(r.warm), true)
	after := readCounters(st)

	lat := latenciesMs(nominal.Ops, nominal.Out, nil)
	r.rep.timing("traced p50_ms", lat, "ms")
	r.rep.set("trace.overhead_frac", percentile(lat, 0.5)/untracedP50-1, len(lat))
	ack := latenciesMs(nominal.Ops, nominal.Out, isWrite)
	if len(ack) > 0 {
		r.rep.set("feedback.ack_p50_ms", median(ack), len(ack))
		if v, ok := percentileWithSupport(ack, 0.99); ok {
			r.rep.set("feedback.ack_p99_ms", v, len(ack))
		}
	}
	d := after.sub(mid)
	reqs := float64(len(nominal.Ops))
	r.rep.set("serve.cache_hit_ratio", d.hits/math.Max(1, d.hits+d.misses), int(d.hits+d.misses))
	r.rep.set("serve.shed_frac", d.sheds/reqs, len(nominal.Ops))
	if st.Router != nil {
		r.rep.set("cluster.hedges_per_req", d.hedges/reqs, len(nominal.Ops))
		r.rep.set("cluster.retries_per_req", d.retries/reqs, len(nominal.Ops))
		if d.hedges > 0 {
			r.rep.set("cluster.hedge_win_ratio", d.hedgeWins/d.hedges, int(d.hedges))
		} else {
			r.rep.set("cluster.hedge_win_ratio", 0, 0)
		}
	}
	if d.fsyncs > 0 {
		r.rep.set("feedback.events_per_fsync", float64(len(ack))/d.fsyncs, int(d.fsyncs))
	}
	layerMetrics(r.rep, tr.Spans(), nominal, len(r.warm), st.Router != nil, d.stages)
	r.allocs(st, nominal.Ops)

	if st.Ing != nil {
		if err := r.promote(st); err != nil {
			return err
		}
	}
	if err := r.check(st, []*Phase{warm, nominal}, 0); err != nil {
		return err
	}
	st.Close()
	st = nil
	if r.wl.Target == "feedback" {
		t0 := time.Now()
		wal, _, err := feedback.OpenWAL(walDir, walConfig(nil))
		if err != nil {
			return err
		}
		n := 0
		err = wal.Replay(func(feedback.Event) error { n++; return nil })
		r.rep.set("feedback.replay_s", time.Since(t0).Seconds(), n)
		wal.Close()
		if err != nil {
			return err
		}
	}
	return writeSpans(filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", r.wl.Target, r.seed)), tr.Spans())
}

// counters is a reading of the program's own counters for a stack.
type counters struct {
	hits, misses, sheds                float64
	hedges, hedgeWins, retries, fsyncs float64
	stages                             map[string]stageSum // the servers' clapf_stage_duration_seconds
}

// stageSum is the total time and the number of calls of one trace stage.
type stageSum struct {
	secs float64
	n    float64
}

func (a stageSum) mean() float64 { return a.secs / a.n }

// crossStages are the servers' trace stages the replay reproduces.
var crossStages = []string{"foldin", "merge", "probe", "score", "topk", "encode", "ingest"}

func readCounters(st *Stack) counters {
	c := counters{stages: make(map[string]stageSum)}
	for _, srv := range st.Servers {
		reg := srv.Registry()
		c.hits += counter(reg, "clapf_cache_hits_total")
		c.misses += counter(reg, "clapf_cache_misses_total")
		c.sheds += counter(reg, "clapf_load_shed_total")
		for _, name := range crossStages {
			h := srv.Tracer().StageHistogram(name)
			s := c.stages[name]
			c.stages[name] = stageSum{s.secs + h.Sum(), s.n + float64(h.Count())}
		}
	}
	if st.Router != nil {
		rs := st.Router.RouterStats()
		c.hedges, c.hedgeWins, c.retries = float64(rs.Hedges), float64(rs.HedgeWins), float64(rs.Retries)
	}
	if st.Fsyncs != nil {
		c.fsyncs = float64(st.Fsyncs.Count())
	}
	return c
}

func (c counters) sub(o counters) counters {
	d := counters{c.hits - o.hits, c.misses - o.misses, c.sheds - o.sheds,
		c.hedges - o.hedges, c.hedgeWins - o.hedgeWins, c.retries - o.retries, c.fsyncs - o.fsyncs,
		make(map[string]stageSum)}
	for name, s := range c.stages {
		d.stages[name] = stageSum{s.secs - o.stages[name].secs, s.n - o.stages[name].n}
	}
	return d
}

// allocs measures heap allocation per request by calling the front
// handler in process, one request at a time, over the first reads of the
// nominal schedule.
func (r *servingRun) allocs(st *Stack, ops []Op) {
	var h http.Handler
	if st.Router != nil {
		h = st.Router.Handler()
	} else {
		h = st.Servers[0].Handler()
	}
	c := &Client{front: "", k: r.cfg.K}
	var reqs []*http.Request
	for i := range ops {
		if len(reqs) == 200 {
			break
		}
		if ops[i].Kind == opWrite {
			continue
		}
		req, err := c.request(0, &ops[i])
		if err != nil {
			continue
		}
		reqs = append(reqs, httptest.NewRequest(req.Method, req.URL.String(), req.Body))
	}
	if len(reqs) == 0 {
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		h.ServeHTTP(discardWriter{hdr: http.Header{}}, req)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(reqs))
	r.rep.set("serve.alloc_bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/n, len(reqs))
	r.rep.set("serve.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/n, len(reqs))
}

type discardWriter struct{ hdr http.Header }

func (w discardWriter) Header() http.Header         { return w.hdr }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// promote times one promotion of the traced run's feedback into a copy of
// the model file.
func (r *servingRun) promote(st *Stack) error {
	path := filepath.Join(r.dir, "promote.clapf")
	b, err := os.ReadFile(r.in.F64Path)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	p, err := feedback.NewPromoter(st.Ing, st.Servers[0], feedback.PromoteConfig{Interval: time.Hour, ModelPath: path})
	if err != nil {
		return err
	}
	t0 := time.Now()
	outcome, err := p.PromoteOnce()
	if err != nil {
		return fmt.Errorf("promotion: %w", err)
	}
	r.rep.set("feedback.promote_s", time.Since(t0).Seconds(), 1)
	r.rep.note("promotion outcome %s", outcome)
	return nil
}
