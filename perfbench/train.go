package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"clapf/internal/baselines"
	"clapf/internal/core"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/experiments"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/sampling"
	"clapf/internal/score"
)

// trainRound is one train-dss pass: segments of SGD steps, then evaluation.
type trainRound struct {
	segMs    []float64 // wall time of each RunSteps segment
	trainS   float64
	evalS    float64
	res      eval.Result
	stepsPer float64
}

// trainDSS runs the step budget through pt in segments and evaluates the
// result with workers goroutines; with tr set, each segment and the
// evaluation are spans of request 0 under a "round" root.
func trainDSS(pt *core.ParallelTrainer, train, test *dataset.Dataset, budget, seg, workers int, tr *Tracer) trainRound {
	var r trainRound
	var roundStart int64
	if tr != nil {
		roundStart = tr.now()
	}
	for done := 0; done < budget; done += seg {
		n := seg
		if budget-done < n {
			n = budget - done
		}
		t0 := time.Now()
		var s0 int64
		if tr != nil {
			s0 = tr.now()
		}
		pt.RunSteps(n)
		d := time.Since(t0)
		if tr != nil {
			tr.add(Span{Name: "train.segment", Parent: "round", Start: s0, End: tr.now()})
		}
		r.segMs = append(r.segMs, ms(d))
		r.trainS += d.Seconds()
	}
	r.stepsPer = float64(budget) / r.trainS
	t0 := time.Now()
	var e0 int64
	if tr != nil {
		e0 = tr.now()
	}
	r.res = eval.Evaluate(score.NewEngine(pt.Model()), train, test, eval.Options{Ks: []int{5}, Workers: workers})
	r.evalS = time.Since(t0).Seconds()
	if tr != nil {
		tr.add(Span{Name: "eval", Parent: "round", Start: e0, End: tr.now()})
		tr.add(Span{Name: "round", Start: roundStart, End: tr.now()})
	}
	return r
}

func runTrain(cfg *Config, wl Workload, seed uint64, seconds float64, traced bool, dir string) (*Report, error) {
	rep := newReport(traced)
	in, err := makeTrainInputs(cfg.Train, seed, dir)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	rep.set("datagen.generate_s", in.GenSecs, 0)
	workers := cfg.Workers
	budget := int(float64(cfg.Train.StepsPerSecond) * seconds)

	cc := core.DefaultConfig(sampling.MAP, in.Train.NumPairs())
	cc.Lambda = experiments.LambdaFor(cfg.Train.Profile, sampling.MAP)
	cc.Steps = budget
	cc.Sampler.Strategy = sampling.DSS
	cc.Seed = seed

	// Set-up: read the corpus and construct the trainer, several times,
	// each from a collected heap.
	var times []float64
	var pt *core.ParallelTrainer
	var train, test *dataset.Dataset
	newTrainer := func() error {
		runtime.GC()
		t0 := time.Now()
		if train, err = readTSV(in.TrainPath); err != nil {
			return err
		}
		if test, err = readTSV(in.TestPath); err != nil {
			return err
		}
		if pt, err = core.NewParallelTrainer(cc, train, workers); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		return nil
	}
	for i := 0; i < wl.Setups; i++ {
		if err := newTrainer(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	rep.note("setup_s runs %v", times)

	// DSS rebuilds its rank lists once every refresh period, a pause worth
	// thousands of steps. A segment of one period holds exactly one
	// rebuild, so every segment does the same work; segments out of step
	// with the period hold one rebuild or none, and the median of such
	// bimodal times jumps between the modes from run to run.
	seg, err := refreshPeriod(cc, train, pt.Model(), seed)
	if err != nil {
		return nil, err
	}
	budget = max(budget/seg, 1) * seg
	perUnit := float64(cfg.Train.PerSteps) / float64(seg)

	runtime.GC()
	heap := watchHeap()
	r := trainDSS(pt, train, test, budget, seg, workers, nil)
	peakMB := heap.PeakMB()
	k5 := r.res.MustAt(5)
	rep.timing(fmt.Sprintf("train.segment_ms (%d steps)", seg), r.segMs, "ms")
	rep.note("train_steps_per_s %.0f  (%d steps in %d segments, %d workers)", r.stepsPer, budget, len(r.segMs), workers)
	rep.note("eval_users_per_s %.1f  n=%d", float64(r.res.Users)/r.evalS, r.res.Users)
	rep.note("prec_at_5 %.6f  ndcg_at_5 %.6f  n=%d", k5.Prec, k5.NDCG, r.res.Users)

	pop := baselines.NewPopRank()
	if err := pop.Fit(train); err != nil {
		return nil, err
	}
	popRes := eval.Evaluate(pop, train, test, eval.Options{Ks: []int{5}, Workers: workers})
	rep.note("poprank prec_at_5 %.6f", popRes.MustAt(5).Prec)
	if err := checkBeatsPopRank(k5.Prec, popRes.MustAt(5).Prec); err != nil {
		rep.problem("%v", err)
	}
	rep.Attempted = len(r.segMs) + 1

	if !traced {
		rep.set("setup_s", median(times), len(times))
		rep.set("p50_ms", percentile(r.segMs, 0.5)*perUnit, len(r.segMs))
		rep.set("p90_ms", percentile(r.segMs, 0.9)*perUnit, len(r.segMs))
		rep.set("quality", k5.Prec, r.res.Users)
		rep.set("peak_heap_mb", peakMB, 0)
		return rep, nil
	}

	rep.set("eval.score_s", r.res.Timing.Score.Seconds(), r.res.Users)
	rep.set("eval.rank_s", r.res.Timing.Rank.Seconds(), r.res.Users)
	rep.set("eval.metrics_s", r.res.Timing.Metrics.Seconds(), r.res.Users)
	rep.set("eval.users_per_s", float64(r.res.Users)/r.evalS, r.res.Users)
	rep.set("eval.ndcg_at_5", k5.NDCG, r.res.Users)

	// The single-thread baseline over a quarter of the budget.
	serial, err := core.NewTrainer(cc, train)
	if err != nil {
		return nil, err
	}
	var serialS float64
	serialSteps := max(budget/seg/4, 1) * seg
	for done := 0; done < serialSteps; done += seg {
		t0 := time.Now()
		serial.RunSteps(seg)
		serialS += time.Since(t0).Seconds()
	}
	serialRate := float64(serialSteps) / serialS
	rep.set("core.serial_steps_per_s", serialRate, 0)
	rep.set("core.parallel_speedup", r.stepsPer/serialRate, 0)

	// The traced replay: a fresh trainer on the same inputs.
	tr := newTracer()
	if err := newTrainer(); err != nil {
		return nil, err
	}
	tr2 := trainDSS(pt, train, test, budget, seg, workers, tr)
	rep.set("trace.overhead_frac", percentile(tr2.segMs, 0.5)/percentile(r.segMs, 0.5)-1, len(tr2.segMs))
	var round, children float64
	for _, s := range tr.Spans() {
		if s.Parent == "round" {
			children += s.dur().Seconds()
		} else {
			round += s.dur().Seconds()
		}
	}
	rep.set("unattributed_us", (round-children)*1e6/float64(len(tr2.segMs)+1), len(tr2.segMs)+1)
	rep.set("unattributed_frac", (round-children)/round, 1)
	rep.Attempted += len(tr2.segMs) + 1
	return rep, writeSpans(filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-train-seed%d.jsonl", seed)), tr.Spans())
}

// refreshPeriod is the number of steps between two rank-list rebuilds of
// the DSS sampler that cc configures, as the sampler resolves it for the
// training data.
func refreshPeriod(cc core.Config, train *dataset.Dataset, m *mf.Model, seed uint64) (int, error) {
	s, err := sampling.NewTripleSampler(cc.Sampler, train, m, mathx.NewRNG(seed))
	if err != nil {
		return 0, err
	}
	return s.RefreshEvery(), nil
}
