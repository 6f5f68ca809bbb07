package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
)

// OpKind is the type of one scheduled serving request.
type OpKind uint8

const (
	opKnown OpKind = iota // GET /recommend?user=
	opCold                // GET /recommend?items=
	opBatch               // POST /recommend/batch of known users
	opWrite               // POST /feedback of an item the user has not seen
)

func (k OpKind) String() string {
	return [...]string{"known", "cold", "batch", "write"}[k]
}

// Op is one request of an open-loop schedule, due at offset Due from the
// start of its phase.
type Op struct {
	Due   time.Duration
	Kind  OpKind
	User  int32   // opKnown, opWrite
	Items []int32 // opCold: the history; opWrite: the one item
	Batch []int32 // opBatch: the known users
}

// Sample is the outcome of one Op. Start and End are offsets from the
// phase start, so End-Due is the latency counted from when the request was
// due and Start-Due is how late the generator sent it.
type Sample struct {
	Start, End time.Duration
	Status     int
	Err        error
	Body       []byte
}

func (s Sample) failed() bool { return s.Err != nil || s.Status != 200 }

// userPicker draws the user of a request.
type userPicker func(rng *mathx.RNG) int32

func uniformUsers(n int) userPicker {
	return func(rng *mathx.RNG) int32 { return int32(rng.Intn(n)) }
}

// activityUsers draws user u with weight proportional to its number of
// training positives, so request traffic follows the generated profile's
// per-user activity: a user who rated more items asks for more lists.
func activityUsers(train *dataset.Dataset) userPicker {
	cdf := make([]float64, train.NumUsers())
	var total float64
	for u := range cdf {
		total += float64(len(train.Positives(int32(u))))
		cdf[u] = total
	}
	return func(rng *mathx.RNG) int32 {
		u := sort.SearchFloat64s(cdf, rng.Float64()*total)
		if u >= len(cdf) {
			u = len(cdf) - 1
		}
		return int32(u)
	}
}

// scheduler turns a workload's mix into seeded request schedules. It is
// stateful across the phases of a run: every write names an item the user
// has neither in training nor in an earlier scheduled write, so each write
// extends the user's history.
type scheduler struct {
	wl       Workload
	train    *dataset.Dataset
	numItems int
	users    userPicker
	written  map[int32]map[int32]bool
}

func newScheduler(wl Workload, train *dataset.Dataset, users userPicker) *scheduler {
	return &scheduler{wl: wl, train: train, numItems: train.NumItems(), users: users,
		written: make(map[int32]map[int32]bool)}
}

// mixWindow is the length of the runs of consecutive ops that each hold
// the workload's mix exactly.
const mixWindow = 20

// mixKinds returns mixWindow kinds in the proportions of m, each share
// rounded by the largest remainder.
func mixKinds(m Mix) []OpKind {
	shares := []float64{m.Known, m.Cold, m.Batch, m.Write}
	counts := make([]int, len(shares))
	left := mixWindow
	for k, sh := range shares {
		counts[k] = int(sh * mixWindow)
		left -= counts[k]
	}
	for ; left > 0; left-- {
		best := 0
		for k, sh := range shares {
			if sh*mixWindow-float64(counts[k]) > shares[best]*mixWindow-float64(counts[best]) {
				best = k
			}
		}
		counts[best]++
	}
	kinds := make([]OpKind, 0, mixWindow)
	for k, c := range counts {
		for ; c > 0; c-- {
			kinds = append(kinds, OpKind(k))
		}
	}
	return kinds
}

// schedule returns the ops of one phase at a fixed rate: one op every
// 1/rate seconds for dur, kinds and users drawn from rng. Kinds are dealt
// from a shuffled window of the exact mix rather than drawn one by one, so
// the share of the slowest kind, whose latencies the tail percentile falls
// among, is the same in every stretch of the phase and in every run.
func (s *scheduler) schedule(rng *mathx.RNG, rate float64, dur time.Duration) []Op {
	n := int(rate * dur.Seconds())
	ops := make([]Op, n)
	gap := float64(time.Second) / rate
	window := mixKinds(s.wl.Mix)
	for i := range ops {
		op := &ops[i]
		op.Due = time.Duration(float64(i) * gap)
		if i%mixWindow == 0 {
			for j := len(window) - 1; j > 0; j-- {
				k := rng.Intn(j + 1)
				window[j], window[k] = window[k], window[j]
			}
		}
		switch window[i%mixWindow] {
		case opKnown:
			op.Kind, op.User = opKnown, s.users(rng)
		case opCold:
			op.Kind, op.Items = opCold, s.history(rng)
		case opBatch:
			op.Kind = opBatch
			op.Batch = make([]int32, s.wl.BatchEntries)
			for j := range op.Batch {
				op.Batch[j] = s.users(rng)
			}
		default:
			op.Kind, op.User = opWrite, s.users(rng)
			op.Items = []int32{s.unseenItem(rng, op.User)}
		}
	}
	return ops
}

// history is a cold-start history: the training positives of a uniformly
// drawn user, so history lengths follow the profile's activity
// distribution.
func (s *scheduler) history(rng *mathx.RNG) []int32 {
	return append([]int32(nil), s.train.Positives(int32(rng.Intn(s.train.NumUsers())))...)
}

// unseenItem draws an item u has not seen. A user who has seen the whole
// catalog gets a repeat, which the server acknowledges without applying.
func (s *scheduler) unseenItem(rng *mathx.RNG, u int32) int32 {
	w := s.written[u]
	if w == nil {
		w = make(map[int32]bool)
		s.written[u] = w
	}
	for tries := 0; ; tries++ {
		it := int32(rng.Intn(s.numItems))
		if !w[it] && !s.train.IsPositive(u, it) || tries == 8*s.numItems {
			w[it] = true
			return it
		}
	}
}

// runOpenLoop sends ops on their schedule from workers goroutines. Each
// worker takes the next op in order, waits until it is due (or sends at
// once when it is already late) and records the outcome; at most workers
// requests are in flight, and ops due while all are busy queue in the
// generator, which shows as lateness.
func runOpenLoop(ops []Op, workers int, send func(i int) Sample) []Sample {
	out := make([]Sample, len(ops))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				// The runtime's timers wake an idle process up to about a
				// millisecond late. That shows as generator lateness and,
				// since latency counts from the due time, in every latency;
				// spinning to the due time instead would hold a processor
				// the program needs.
				if d := ops[i].Due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				start := time.Since(t0)
				s := send(i)
				s.Start, s.End = start, time.Since(t0)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// latenciesMs returns each sample's latency from its due time; failed
// requests are +Inf, so they count as missing any limit.
func latenciesMs(ops []Op, ss []Sample, keep func(Op) bool) []float64 {
	out := make([]float64, 0, len(ss))
	for i, s := range ss {
		if keep != nil && !keep(ops[i]) {
			continue
		}
		if s.failed() {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(s.End-ops[i].Due))
	}
	return out
}

func latenessMs(ops []Op, ss []Sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.Start - ops[i].Due)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// StepResult is one ladder step's verdict.
type StepResult struct {
	Rate     float64
	N        int
	TailQ    float64
	TailMs   float64
	LastLate float64 // worst lateness over the last tenth of the step, ms
	Failed   int
	Pass     bool
}

// judgeStep passes a ladder step when the tail latency of its recommend
// requests (the 99th percentile, or the highest one the step's sample
// supports) is within limitMs, no request of any kind failed to count
// against it, and the backlog did not grow: the generator was never more
// than limitMs late over the step's last tenth.
func judgeStep(rate float64, ops []Op, ss []Sample, limitMs float64) StepResult {
	r := StepResult{Rate: rate, N: len(ss)}
	lat := latenciesMs(ops, ss, isRead)
	sort.Float64s(lat)
	r.TailQ = math.Min(0.99, supportedTail(len(lat)))
	if r.TailQ == 0 {
		return r
	}
	r.TailMs = quantile(lat, r.TailQ)
	for i := len(ss) - len(ss)/10 - 1; i < len(ss); i++ {
		if i >= 0 {
			r.LastLate = math.Max(r.LastLate, ms(ss[i].Start-ops[i].Due))
		}
	}
	for _, s := range ss {
		if s.failed() {
			r.Failed++
		}
	}
	r.Pass = r.TailMs <= limitMs && r.LastLate <= limitMs && r.Failed == 0
	return r
}
