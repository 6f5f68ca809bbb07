package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"clapf/internal/cluster"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/feedback"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/score"
	"clapf/internal/serve"
)

// checkList validates one served top-K list: at most k entries, ids in
// the catalog and distinct, scores finite and non-increasing, and no item
// the user must not be shown (excluded reports those).
func checkList(its []serve.Item, k, numItems int, excluded func(int32) bool) error {
	if len(its) > k {
		return fmt.Errorf("%d items, k=%d", len(its), k)
	}
	seen := make(map[int32]bool, len(its))
	for i, it := range its {
		switch {
		case it.Item < 0 || int(it.Item) >= numItems:
			return fmt.Errorf("item %d out of range", it.Item)
		case seen[it.Item]:
			return fmt.Errorf("item %d listed twice", it.Item)
		case math.IsNaN(it.Score) || math.IsInf(it.Score, 0):
			return fmt.Errorf("item %d has non-finite score", it.Item)
		case i > 0 && it.Score > its[i-1].Score:
			return fmt.Errorf("scores not in descending order at rank %d", i)
		case excluded(it.Item):
			return fmt.Errorf("item %d is a training positive or acked feedback of the user", it.Item)
		}
		seen[it.Item] = true
	}
	return nil
}

// inSorted reports membership in a sorted id list.
func inSorted(xs []int32) func(int32) bool {
	return func(i int32) bool {
		j := sort.Search(len(xs), func(j int) bool { return xs[j] >= i })
		return j < len(xs) && xs[j] == i
	}
}

// checkIdentical requires a served list to equal the offline reference
// entry for entry, scores bit for bit.
func checkIdentical(served []serve.Item, ref []rank.Entry) error {
	if len(served) != len(ref) {
		return fmt.Errorf("served %d items, reference has %d", len(served), len(ref))
	}
	for i := range ref {
		if served[i].Item != ref[i].Item || served[i].Score != ref[i].Score {
			return fmt.Errorf("rank %d: served (%d, %v), reference (%d, %v)",
				i, served[i].Item, served[i].Score, ref[i].Item, ref[i].Score)
		}
	}
	return nil
}

// Ack is a feedback event the server acknowledged as durable.
type Ack struct {
	User, Item int32
	Seq        uint64
	Sent, At   time.Time
}

// checkAcksReplayed requires every acknowledged event to come back from
// the log's replay with the same user and item under its sequence number.
func checkAcksReplayed(acks []Ack, replayed []feedback.Event) error {
	bySeq := make(map[uint64]feedback.Event, len(replayed))
	for _, ev := range replayed {
		bySeq[ev.Seq] = ev
	}
	missing := 0
	var first string
	for _, a := range acks {
		ev, ok := bySeq[a.Seq]
		if !ok || ev.User != a.User || ev.Item != a.Item {
			if missing == 0 {
				first = fmt.Sprintf("seq %d (user %d, item %d)", a.Seq, a.User, a.Item)
			}
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d of %d acked events not replayed from the log, first %s", missing, len(acks), first)
	}
	return nil
}

// checkBeatsPopRank requires the trained model's Prec@5 to exceed the
// popularity ranking's on the same split.
func checkBeatsPopRank(prec, pop float64) error {
	if !(prec > pop) {
		return fmt.Errorf("Prec@5 %.4f does not beat PopRank's %.4f", prec, pop)
	}
	return nil
}

// Exchange is one request of a phase with its absolute send and receive
// times.
type Exchange struct {
	Op         *Op
	Sent, Recv time.Time
	Sample     Sample
}

func exchanges(t0 time.Time, ops []Op, ss []Sample) []Exchange {
	out := make([]Exchange, len(ops))
	for i := range ops {
		out[i] = Exchange{Op: &ops[i], Sent: t0.Add(ss[i].Start), Recv: t0.Add(ss[i].End), Sample: ss[i]}
	}
	return out
}

// ServingCheck validates every answered request of a stack's phases and
// measures served quality against an offline exact reference.
type ServingCheck struct {
	K         int
	Train     *dataset.Dataset
	Ref       mf.Params // the served parameters, loaded independently
	FoldInReg float64   // the server's fold-in ridge strength
	Identity  bool      // exact serving: sampled lists must equal the reference
	Acks      []Ack

	Problems  []string
	Answers   int // read answers checked
	Degraded  int
	RecallSum float64
	RecallN   int
	Identical int
}

func (c *ServingCheck) problem(format string, args ...any) {
	if len(c.Problems) < 20 {
		c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
	}
}

// collectAcks records the acknowledged writes of xs.
func (c *ServingCheck) collectAcks(xs []Exchange) {
	for _, x := range xs {
		if x.Op.Kind != opWrite || x.Sample.failed() {
			continue
		}
		var resp serve.FeedbackResponse
		if err := json.Unmarshal(x.Sample.Body, &resp); err != nil || resp.Events != 1 {
			c.problem("write for user %d: undecodable ack %q", x.Op.User, x.Sample.Body)
			continue
		}
		c.Acks = append(c.Acks, Ack{User: x.Op.User, Item: x.Op.Items[0], Seq: resp.Seq, Sent: x.Sent, At: x.Recv})
	}
	sort.Slice(c.Acks, func(i, j int) bool { return c.Acks[i].At.Before(c.Acks[j].At) })
}

// ackedBefore returns user u's items acknowledged before t, sorted.
func (c *ServingCheck) ackedBefore(u int32, t time.Time) []int32 {
	var out []int32
	for _, a := range c.Acks {
		if !a.At.Before(t) {
			break
		}
		if a.User == u {
			out = append(out, a.Item)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// settled reports whether no write for u was in flight during [from, to],
// so the read saw exactly the events acknowledged before it was sent.
func (c *ServingCheck) settled(u int32, from, to time.Time) bool {
	for _, a := range c.Acks {
		if a.User == u && a.Sent.Before(to) && a.At.After(from) {
			return false
		}
	}
	return true
}

// checkReads validates every answered read of xs; every stride-th read is
// also compared with the reference.
func (c *ServingCheck) checkReads(xs []Exchange, stride int) {
	numItems := c.Train.NumItems()
	for i, x := range xs {
		op := x.Op
		if op.Kind == opWrite || x.Sample.failed() {
			continue
		}
		withRef := stride > 0 && i%stride == 0
		switch op.Kind {
		case opKnown:
			var resp cluster.Response
			if err := json.Unmarshal(x.Sample.Body, &resp); err != nil {
				c.problem("user %d: undecodable answer: %v", op.User, err)
				continue
			}
			c.Answers++
			if resp.Degraded != "" {
				c.Degraded++
			}
			c.knownAnswer(op.User, resp.Items, x, withRef)
		case opCold:
			var resp serve.RecommendResponse
			if err := json.Unmarshal(x.Sample.Body, &resp); err != nil {
				c.problem("history %v: undecodable answer: %v", op.Items, err)
				continue
			}
			c.Answers++
			hist := append([]int32(nil), op.Items...)
			sort.Slice(hist, func(a, b int) bool { return hist[a] < hist[b] })
			if err := checkList(resp.Items, c.K, numItems, inSorted(hist)); err != nil {
				c.problem("history %v: %v", op.Items, err)
				continue
			}
			if withRef {
				uf, err := mf.FoldInUser(c.Ref, op.Items, c.FoldInReg)
				if err != nil {
					c.problem("reference fold-in: %v", err)
					continue
				}
				c.compare(resp.Items, c.reference(uf, hist))
			}
		case opBatch:
			var resp serve.BatchResponse
			if err := json.Unmarshal(x.Sample.Body, &resp); err != nil || len(resp.Results) != len(op.Batch) {
				c.problem("batch: undecodable answer or wrong length")
				continue
			}
			for j, u := range op.Batch {
				if resp.Results[j].Error != "" {
					c.problem("batch entry user %d: %s", u, resp.Results[j].Error)
					continue
				}
				c.Answers++
				c.knownAnswer(u, resp.Results[j].Items, x, withRef)
			}
		}
	}
}

func (c *ServingCheck) knownAnswer(u int32, its []serve.Item, x Exchange, withRef bool) {
	if u < 0 || int(u) >= c.Train.NumUsers() {
		c.problem("answer for unknown user %d", u)
		return
	}
	excl := dataset.MergeSorted(c.Train.Positives(u), c.ackedBefore(u, x.Sent))
	if err := checkList(its, c.K, c.Train.NumItems(), inSorted(excl)); err != nil {
		c.problem("user %d: %v", u, err)
		return
	}
	if !withRef || !c.settled(u, x.Sent, x.Recv) {
		return
	}
	scores := make([]float64, c.Ref.NumItems())
	if len(excl) > len(c.Train.Positives(u)) {
		// Acked feedback re-solved the user's factors online, over the
		// merged history; the reference does the same solve.
		uf, err := mf.FoldInUser(c.Ref, excl, c.FoldInReg)
		if err != nil {
			c.problem("reference fold-in: %v", err)
			return
		}
		c.Ref.ScoreAllFoldIn(uf, scores)
	} else {
		score.NewEngine(c.Ref).ScoreAll(u, scores)
	}
	c.compare(its, c.topK(scores, excl))
}

// reference is the offline exact top-K for folded-in user factors uf with
// the sorted exclusion list excl.
func (c *ServingCheck) reference(uf []float64, excl []int32) []rank.Entry {
	scores := make([]float64, c.Ref.NumItems())
	c.Ref.ScoreAllFoldIn(uf, scores)
	return c.topK(scores, excl)
}

func (c *ServingCheck) topK(scores []float64, excl []int32) []rank.Entry {
	top, _ := rank.TopKDropped(scores, c.K, mergeExclusion(excl))
	return top
}

func (c *ServingCheck) compare(served []serve.Item, ref []rank.Entry) {
	ids := make([]int32, len(served))
	for i, it := range served {
		ids[i] = it.Item
	}
	refIDs := make([]int32, len(ref))
	for i, e := range ref {
		refIDs[i] = e.Item
	}
	c.RecallSum += eval.RecallVsExact(ids, refIDs)
	c.RecallN++
	if c.Identity {
		if err := checkIdentical(served, ref); err != nil {
			c.problem("served list differs from the exact reference: %v", err)
			return
		}
		c.Identical++
	}
}
