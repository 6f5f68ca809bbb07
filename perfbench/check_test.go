package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/feedback"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/score"
	"clapf/internal/serve"
)

// checkFixture is a small model with its training positives and the exact
// answer for user 0.
type checkFixture struct {
	model *mf.Model
	train *dataset.Dataset
	ref   []rank.Entry
}

func newCheckFixture(t *testing.T) checkFixture {
	t.Helper()
	const users, items, dim = 4, 40, 3
	rng := mathx.NewRNG(5)
	u, v, b := make([]float64, users*dim), make([]float64, items*dim), make([]float64, items)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	m, err := mf.FromRaw(mf.Config{NumUsers: users, NumItems: items, Dim: dim, UseBias: true}, u, v, b)
	if err != nil {
		t.Fatal(err)
	}
	db := dataset.NewBuilder("t", users, items)
	for _, it := range []int32{3, 17, 29} {
		if err := db.Add(0, it); err != nil {
			t.Fatal(err)
		}
	}
	train := db.Build()
	scores := make([]float64, items)
	score.NewEngine(m).ScoreAll(0, scores)
	ref, _ := rank.TopKDropped(scores, 10, mergeExclusion(train.Positives(0)))
	return checkFixture{model: m, train: train, ref: ref}
}

func (f checkFixture) check(identity bool) *ServingCheck {
	return &ServingCheck{K: 10, Train: f.train, Ref: f.model, FoldInReg: 0.1, Identity: identity}
}

// answer is a served /recommend body for user 0 listing es.
func answer(t *testing.T, es []rank.Entry) Exchange {
	t.Helper()
	u := int32(0)
	body, err := json.Marshal(serve.RecommendResponse{User: &u, Items: items(es)})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	return Exchange{Op: &Op{Kind: opKnown, User: 0}, Sent: now, Recv: now.Add(time.Millisecond),
		Sample: Sample{Status: 200, Body: body}}
}

func TestCheckAcceptsTheExactAnswer(t *testing.T) {
	f := newCheckFixture(t)
	c := f.check(true)
	c.checkReads([]Exchange{answer(t, f.ref)}, 1)
	if len(c.Problems) > 0 || c.Identical != 1 || c.RecallSum != 1 {
		t.Fatalf("exact answer rejected: %v (identical %d, recall %v)", c.Problems, c.Identical, c.RecallSum)
	}
}

func TestCheckRejectsCorruptedAnswers(t *testing.T) {
	f := newCheckFixture(t)
	corrupt := map[string]func([]rank.Entry) []rank.Entry{
		"training positive": func(es []rank.Entry) []rank.Entry { es[4].Item = 17; return es },
		"duplicate item":    func(es []rank.Entry) []rank.Entry { es[2].Item = es[1].Item; return es },
		"item out of range": func(es []rank.Entry) []rank.Entry { es[0].Item = 40; return es },
		"unsorted scores":   func(es []rank.Entry) []rank.Entry { es[0], es[1] = es[1], es[0]; return es },
		"too many items":    func(es []rank.Entry) []rank.Entry { return append(es, rank.Entry{Item: 39, Score: -99}) },
	}
	for name, fn := range corrupt {
		c := f.check(false)
		c.checkReads([]Exchange{answer(t, fn(append([]rank.Entry(nil), f.ref...)))}, 0)
		if len(c.Problems) == 0 {
			t.Errorf("%s: not detected", name)
		}
	}
	// A list that passes every structural check but differs from the
	// reference fails only the identity check.
	altered := append([]rank.Entry(nil), f.ref...)
	altered[9].Score -= 1e-12
	c := f.check(false)
	c.checkReads([]Exchange{answer(t, altered)}, 1)
	if len(c.Problems) > 0 {
		t.Fatalf("a structurally valid list failed without the identity check: %v", c.Problems)
	}
	c = f.check(true)
	c.checkReads([]Exchange{answer(t, altered)}, 1)
	if len(c.Problems) == 0 || !strings.Contains(c.Problems[0], "differs") {
		t.Fatalf("altered score not detected: %v", c.Problems)
	}
}

func TestCheckRejectsAckedItemInLaterAnswer(t *testing.T) {
	f := newCheckFixture(t)
	acked := f.ref[0].Item
	read := answer(t, f.ref)
	write := Exchange{Op: &Op{Kind: opWrite, User: 0, Items: []int32{acked}},
		Sent: read.Sent.Add(-3 * time.Millisecond), Recv: read.Sent.Add(-2 * time.Millisecond),
		Sample: Sample{Status: 200, Body: []byte(`{"status":"ok","seq":1,"events":1,"applied":1}`)}}
	c := f.check(false)
	c.collectAcks([]Exchange{write})
	c.checkReads([]Exchange{read}, 0)
	if len(c.Problems) == 0 || !strings.Contains(c.Problems[0], "acked feedback") {
		t.Fatalf("an item acked before the read was served back: %v", c.Problems)
	}
	// Acked after the read was sent, the item may still be listed.
	write.Sent, write.Recv = read.Recv, read.Recv.Add(time.Millisecond)
	c = f.check(false)
	c.collectAcks([]Exchange{write})
	c.checkReads([]Exchange{read}, 0)
	if len(c.Problems) > 0 {
		t.Fatalf("an ack after the read was sent was enforced: %v", c.Problems)
	}
}

func TestCheckAcksReplayed(t *testing.T) {
	acks := []Ack{{User: 1, Item: 2, Seq: 1}, {User: 3, Item: 4, Seq: 2}}
	all := []feedback.Event{{Seq: 1, User: 1, Item: 2}, {Seq: 2, User: 3, Item: 4}}
	if err := checkAcksReplayed(acks, all); err != nil {
		t.Fatal(err)
	}
	if err := checkAcksReplayed(acks, all[:1]); err == nil {
		t.Fatal("a dropped ack was not detected")
	}
	bad := []feedback.Event{all[0], {Seq: 2, User: 3, Item: 5}}
	if err := checkAcksReplayed(acks, bad); err == nil {
		t.Fatal("a replayed event with the wrong item was not detected")
	}
}

func TestCheckBeatsPopRank(t *testing.T) {
	if err := checkBeatsPopRank(0.3, 0.2); err != nil {
		t.Fatal(err)
	}
	if checkBeatsPopRank(0.2, 0.2) == nil || checkBeatsPopRank(0.1, 0.2) == nil {
		t.Fatal("a model no better than PopRank passed")
	}
}
