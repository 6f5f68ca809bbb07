// Package rank provides ranked-list utilities: bounded top-k selection over
// score vectors and rank lookups, the building blocks of both the
// evaluation protocol (rank all unobserved items) and the rank-aware
// samplers.
package rank

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Entry pairs an item index with its score.
type Entry struct {
	Item  int32
	Score float64
}

// TopK returns the k highest-scoring item indices, best first, skipping
// items for which exclude returns true. Ties break toward the smaller item
// id so results are deterministic. exclude may be nil; it is called at
// most once per item, in increasing item order — callers filtering
// against a sorted id list can use a stateful merge pointer instead of a
// per-item binary search.
//
// Non-finite scores (NaN, ±Inf) are dropped: NaN violates the strict weak
// ordering the heap relies on — one poisoned comparison can silently
// corrupt the whole result — and an Inf score is always a diverged or
// bit-flipped parameter, never a ranking signal. Callers that need to
// observe how many were dropped use TopKDropped.
//
// It maintains a size-k min-heap over the scores, costing O(m log k) — the
// difference between feasible and infeasible when the protocol ranks every
// unobserved item for every test user.
func TopK(scores []float64, k int, exclude func(item int32) bool) []Entry {
	top, _ := TopKDropped(scores, k, exclude)
	return top
}

// TopKDropped is TopK plus the number of non-excluded items whose scores
// were dropped for being non-finite — the serve path counts and logs these
// (clapf_nonfinite_scores_total) so a corrupted model is visible instead
// of silently mis-ranking.
func TopKDropped(scores []float64, k int, exclude func(item int32) bool) ([]Entry, int) {
	if k <= 0 {
		return nil, 0
	}
	h := NewHeap(k)
	dropped := 0
	for i, sc := range scores {
		it := int32(i)
		if exclude != nil && exclude(it) {
			continue
		}
		if math.IsNaN(sc) || math.IsInf(sc, 0) {
			dropped++
			continue
		}
		h.Push(Entry{Item: it, Score: sc})
	}
	return h.Finish(), dropped
}

// TopKEntries selects the k best of the given entries under the same
// ordering as TopK (descending score, ties toward the smaller item id),
// dropping non-finite scores. Unlike TopK it takes an explicit candidate
// list rather than a dense score vector — the approximate-retrieval path
// ranks only the items surviving cluster pruning. When fewer than k
// finite candidates are supplied the result is shorter than k; callers
// must not assume a full list.
func TopKEntries(es []Entry, k int) []Entry {
	top, _ := TopKEntriesDropped(es, k)
	return top
}

// TopKEntriesDropped is TopKEntries plus the count of entries dropped for
// carrying a non-finite score. Because Heap selection depends only on the
// *set* of pushed entries (see Heap), feeding any permutation of the
// non-excluded items of a dense score vector — scores computed by the same
// operations — returns bit-identical results to TopKDropped over that
// vector.
func TopKEntriesDropped(es []Entry, k int) ([]Entry, int) {
	if k <= 0 {
		return nil, 0
	}
	h := NewHeap(k)
	dropped := 0
	for _, e := range es {
		if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
			dropped++
			continue
		}
		h.Push(e)
	}
	return h.Finish(), dropped
}

// Heap is the bounded min-heap behind every top-k selection in this
// package: it retains the k best entries pushed so far, evicting the
// current worst. The ordering is total — descending score, ties toward the
// smaller item id — so the retained set, and therefore Finish's output, is
// a pure function of the set of pushed entries, independent of push order.
// Sharing one implementation is what lets the dense (TopKDropped),
// candidate-list (TopKEntriesDropped), and streaming (IVF probe) paths
// guarantee identical selections for identical inputs.
//
// Pushing a NaN score corrupts the heap invariant (NaN breaks the total
// order); callers must drop non-finite scores first, as the TopK wrappers
// do.
type Heap struct {
	h []Entry
	k int
}

// NewHeap returns a heap retaining the k best pushed entries.
func NewHeap(k int) *Heap {
	if k < 0 {
		k = 0
	}
	return &Heap{h: make([]Entry, 0, k), k: k}
}

// less orders the min-heap by score; for equal scores the *larger* item
// id is "smaller" so it gets evicted first, keeping small ids.
func (t *Heap) less(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}

// Push offers an entry; it is retained iff it ranks among the k best seen.
func (t *Heap) Push(e Entry) {
	h := t.h
	if t.k == 0 {
		return
	}
	if len(h) < t.k {
		t.h = append(h, e)
		t.siftUp(len(t.h) - 1)
		return
	}
	if t.less(h[0], e) {
		h[0] = e
		t.siftDown(0)
	}
}

func (t *Heap) siftUp(i int) {
	h := t.h
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (t *Heap) siftDown(i int) {
	h := t.h
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && t.less(h[l], h[s]) {
			s = l
		}
		if r < len(h) && t.less(h[r], h[s]) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// Len returns how many entries are currently retained.
func (t *Heap) Len() int { return len(t.h) }

// Root returns the worst retained entry — the one the next successful
// Push would evict. It is only meaningful once Len() == k; hot loops use
// it to reject below-floor candidates with a local comparison instead of
// a Push call.
func (t *Heap) Root() Entry { return t.h[0] }

// Finish sorts the retained entries best-first (descending score, ties
// toward the smaller item id) and returns them. The heap must not be used
// afterwards.
func (t *Heap) Finish() []Entry {
	slices.SortFunc(t.h, func(a, b Entry) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return cmp.Compare(a.Item, b.Item)
	})
	return t.h
}

// Ranks returns, for each requested item, its 1-based rank within the score
// vector under descending-score order (rank 1 = highest score). Only the
// requested items' ranks are computed, in O(m · |items|) worst case but
// O(m) for the common single-item call.
func Ranks(scores []float64, items []int32) []int {
	out := make([]int, len(items))
	for idx, it := range items {
		s := scores[it]
		r := 1
		for j, sc := range scores {
			if sc > s || (sc == s && int32(j) < it) {
				r++
			}
		}
		out[idx] = r
	}
	return out
}

// Argsort returns item indices ordered by descending score, ties broken by
// ascending item id. It is the full-sort used by the samplers' rank-list
// refresh.
func Argsort(scores []float64) []int32 {
	idx := make([]int32, len(scores))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return ia < ib
	})
	return idx
}

// Reverse reverses xs in place.
func Reverse(xs []int32) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
