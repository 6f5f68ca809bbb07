package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
)

func testTrain(t *testing.T, users, items int) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder("t", users, items)
	rng := mathx.NewRNG(3)
	for u := 0; u < users; u++ {
		for j := 0; j < 5; j++ {
			if err := b.Add(int32(u), int32(rng.Intn(items))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

var testMix = Workload{
	Mix:          Mix{Known: 0.4, Cold: 0.2, Batch: 0.1, Write: 0.3},
	BatchEntries: 3,
}

func schedules(train *dataset.Dataset, seed uint64) [][]Op {
	rng := mathx.NewRNG(seed)
	s := newScheduler(testMix, train, activityUsers(train))
	return [][]Op{s.schedule(rng, 500, time.Second), s.schedule(rng, 800, 500*time.Millisecond)}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	train := testTrain(t, 200, 500)
	a, b := schedules(train, 7), schedules(train, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedules(train, 8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a[0]) != 500 || len(a[1]) != 400 {
		t.Fatalf("phase sizes %d, %d; want 500, 400", len(a[0]), len(a[1]))
	}
	for i, op := range a[1] {
		if want := time.Duration(i) * 1250 * time.Microsecond; op.Due != want {
			t.Fatalf("op %d due at %v, want %v (fixed rate)", i, op.Due, want)
		}
	}
}

func TestScheduleWritesAreUnseen(t *testing.T) {
	train := testTrain(t, 20, 500)
	kinds := map[OpKind]int{}
	written := map[[2]int32]bool{}
	for _, phase := range schedules(train, 1) {
		for _, op := range phase {
			kinds[op.Kind]++
			switch op.Kind {
			case opWrite:
				key := [2]int32{op.User, op.Items[0]}
				if written[key] || train.IsPositive(op.User, op.Items[0]) {
					t.Fatalf("write %v repeats an item the user has seen", key)
				}
				written[key] = true
			case opCold:
				if len(op.Items) == 0 {
					t.Fatal("empty cold-start history")
				}
			case opBatch:
				if len(op.Batch) != 3 {
					t.Fatalf("batch of %d entries", len(op.Batch))
				}
			}
		}
	}
	// Both phases are whole windows, so the mix holds exactly.
	for k, want := range map[OpKind]int{opKnown: 360, opCold: 180, opBatch: 90, opWrite: 270} {
		if kinds[k] != want {
			t.Errorf("%v: %d ops, want %d", k, kinds[k], want)
		}
	}
}

func TestScheduleHoldsTheMixInEveryWindow(t *testing.T) {
	train := testTrain(t, 50, 500)
	for _, phase := range schedules(train, 3) {
		for w := 0; w+mixWindow <= len(phase); w += mixWindow {
			counts := map[OpKind]int{}
			for _, op := range phase[w : w+mixWindow] {
				counts[op.Kind]++
			}
			if counts[opKnown] != 8 || counts[opCold] != 4 || counts[opBatch] != 2 || counts[opWrite] != 6 {
				t.Fatalf("window at op %d holds %v, want 8 known, 4 cold, 2 batch, 6 write", w, counts)
			}
		}
	}
}

func TestMixKindsRoundsByLargestRemainder(t *testing.T) {
	count := func(m Mix) [4]int {
		var c [4]int
		for _, k := range mixKinds(m) {
			c[k]++
		}
		return c
	}
	if got := count(Mix{Known: 0.6, Cold: 0.2, Batch: 0.2}); got != [4]int{12, 4, 4, 0} {
		t.Errorf("0.6/0.2/0.2 dealt %v", got)
	}
	if got := count(Mix{Known: 0.33, Cold: 0.33, Write: 0.34}); got != [4]int{7, 6, 0, 7} {
		t.Errorf("0.33/0.33/0.34 dealt %v", got)
	}
}

func TestActivityUsersFollowPositives(t *testing.T) {
	// User u has u+1 positives, so it is drawn with weight u+1.
	b := dataset.NewBuilder("t", 4, 10)
	for u := 0; u < 4; u++ {
		for i := 0; i <= u; i++ {
			if err := b.Add(int32(u), int32(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pick, rng := activityUsers(b.Build()), mathx.NewRNG(5)
	const n = 100000
	counts := make([]int, 4)
	for i := 0; i < n; i++ {
		counts[pick(rng)]++
	}
	for u, c := range counts {
		if want := float64(u+1) / 10; math.Abs(float64(c)/n-want) > 0.01 {
			t.Errorf("user %d drawn %.3f of the time, want %.1f", u, float64(c)/n, want)
		}
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// Every op is due at once and one worker sends them in turn, each send
	// taking 2ms: op i waits for the i before it, and that wait is both its
	// lateness and part of its latency.
	ops := make([]Op, 5)
	ss := runOpenLoop(ops, 1, func(int) Sample {
		time.Sleep(2 * time.Millisecond)
		return Sample{Status: 200}
	})
	late, lat := latenessMs(ops, ss), latenciesMs(ops, ss, nil)
	for i := range ops {
		if min := float64(2 * i); late[i] < min || lat[i] < min+2 {
			t.Fatalf("op %d: late %.2fms latency %.2fms, want at least %dms and %dms", i, late[i], lat[i], 2*i, 2*i+2)
		}
	}
}

func TestJudgeStep(t *testing.T) {
	mk := func(n int, lat time.Duration, failEvery int, lateTail time.Duration) ([]Op, []Sample) {
		ops := make([]Op, n)
		ss := make([]Sample, n)
		for i := range ops {
			ops[i].Due = time.Duration(i) * time.Millisecond
			start := ops[i].Due
			if i >= n-5 {
				start += lateTail
			}
			ss[i] = Sample{Start: start, End: start + lat, Status: 200}
			if failEvery > 0 && i%failEvery == 0 {
				ss[i].Status = 503
			}
		}
		return ops, ss
	}
	ops, ss := mk(1000, 2*time.Millisecond, 0, 0)
	if s := judgeStep(1000, ops, ss, 10); !s.Pass || s.TailQ != 0.99 {
		t.Fatalf("healthy step judged %+v", s)
	}
	ops, ss = mk(1000, 2*time.Millisecond, 50, 0) // 2% failed
	if s := judgeStep(1000, ops, ss, 10); s.Pass || s.Failed != 20 {
		t.Fatalf("failed requests must count as misses: %+v", s)
	}
	// The last few requests went out late: too few to move the 99th
	// percentile, but the backlog grew.
	ops, ss = mk(1000, 2*time.Millisecond, 0, 20*time.Millisecond)
	if s := judgeStep(1000, ops, ss, 10); s.Pass || s.TailMs > 10 {
		t.Fatalf("a late tail must fail the step: %+v", s)
	}
}
