package main

import (
	"container/list"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"clapf/internal/cluster"
	"clapf/internal/dataset"
	"clapf/internal/feedback"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/retrieval"
	"clapf/internal/score"
	"clapf/internal/serve"
)

// mirrorCache predicts the server's top-K result cache: an LRU of
// serve.DefaultCacheSize (user, k) keys, filled by known-user requests in
// dispatch order and emptied per user by feedback writes. The traced run
// uses it to know which requests skipped scoring; the served hit ratio
// itself is read from the server's clapf_cache_*_total counters.
type mirrorCache struct {
	cap int
	ll  *list.List
	by  map[int32]*list.Element // one k per run, so the user is the key
}

func newMirrorCache(capacity int) *mirrorCache {
	return &mirrorCache{cap: capacity, ll: list.New(), by: make(map[int32]*list.Element)}
}

// access reports whether u is cached and marks it most recently used,
// inserting it on a miss.
func (c *mirrorCache) access(u int32) bool {
	if el, ok := c.by[u]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	c.by[u] = c.ll.PushFront(u)
	for c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.by, old.Value.(int32))
	}
	return false
}

func (c *mirrorCache) invalidate(u int32) {
	if el, ok := c.by[u]; ok {
		c.ll.Remove(el)
		delete(c.by, u)
	}
}

// Replayer re-runs, from outside the program, the public layer calls the
// serve handler makes for a request, in the handler's order, timing each
// one as a span named after the server's own trace stage (foldin, merge,
// probe, score, topk, encode; append for the feedback log). The calls run
// against the live server's parameters, an IVF index built with the
// server's settings, and a second feedback log with the server's sync
// settings, so they cost what the handler's calls cost without touching
// the serving state. The replay runs after a phase's load, one request at
// a time in schedule order, so it never competes with the requests it
// explains; while the load runs, only the cache mirror is kept.
type Replayer struct {
	t      *Tracer
	k      int
	reg    float64 // the server's fold-in ridge strength
	ivf    bool
	stack  *Stack
	index  *retrieval.Index
	shadow *feedback.WAL
	ring   *cluster.Ring
	extra  map[int32][]int32 // replayed writes per user, sorted
	buf    []float64

	mu     sync.Mutex
	mirror []*mirrorCache // one per server
	hits   map[int][]bool // rid -> predicted cache hit per known user
}

func newReplayer(t *Tracer, k int, st *Stack, index *retrieval.Index, shadow *feedback.WAL) (*Replayer, error) {
	r := &Replayer{t: t, k: k, reg: st.Servers[0].FoldInReg, ivf: index != nil, stack: st, index: index,
		shadow: shadow, extra: make(map[int32][]int32), hits: make(map[int][]bool),
		buf: make([]float64, st.Servers[0].Params().NumItems())}
	for range st.Servers {
		r.mirror = append(r.mirror, newMirrorCache(st.Servers[0].CacheSize()))
	}
	if st.Router != nil {
		ring, err := cluster.NewRing(shardNames, 64)
		if err != nil {
			return nil, err
		}
		r.ring = ring
	}
	return r, nil
}

// dispatch updates the cache mirror for op as it is sent.
func (r *Replayer) dispatch(rid int, op *Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch op.Kind {
	case opKnown:
		r.hits[rid] = []bool{r.cacheFor(op.User).access(op.User)}
	case opBatch:
		h := make([]bool, len(op.Batch))
		for i, u := range op.Batch {
			h[i] = r.cacheFor(u).access(u)
		}
		r.hits[rid] = h
	case opWrite:
		r.cacheFor(op.User).invalidate(op.User)
	}
}

func (r *Replayer) cacheFor(u int32) *mirrorCache {
	if r.ring == nil {
		return r.mirror[0]
	}
	return r.mirror[r.ring.Lookup(cluster.UserKey(u))[0]]
}

func (r *Replayer) predictedHits(rid int) []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hits[rid]
	delete(r.hits, rid)
	return h
}

// span times fn as a replay span of request rid.
func (r *Replayer) span(rid int, name string, fn func()) {
	start := r.t.now()
	fn()
	r.t.add(Span{Req: int64(rid), Name: name, Parent: "replay", Start: start, End: r.t.now()})
}

// positives is u's exclusion set as the server held it at this point of
// the schedule: the training positives and the writes replayed so far.
func (r *Replayer) positives(u int32) []int32 {
	pos := r.stack.Train.Positives(u)
	if extra := r.extra[u]; len(extra) > 0 {
		pos = dataset.MergeSorted(pos, extra)
	}
	return pos
}

func (r *Replayer) addExtra(u, it int32) {
	xs := r.extra[u]
	j := sort.Search(len(xs), func(j int) bool { return xs[j] >= it })
	if j < len(xs) && xs[j] == it {
		return
	}
	r.extra[u] = append(xs[:j], append([]int32{it}, xs[j:]...)...)
}

// replayPhase replays the answered requests of p, whose request ids start
// at ridBase, in schedule order. With timed false it only carries the
// phase's writes into the exclusion sets.
func (r *Replayer) replayPhase(p *Phase, ridBase int, timed bool) {
	for i := range p.Ops {
		op := &p.Ops[i]
		rid := ridBase + i
		if !timed || p.Out[i].failed() {
			r.predictedHits(rid)
			if op.Kind == opWrite && !p.Out[i].failed() {
				r.addExtra(op.User, op.Items[0])
			}
			continue
		}
		start := r.t.now()
		r.replay(rid, op, p.Out[i].Body)
		r.t.add(Span{Req: int64(rid), Name: "replay", Start: start, End: r.t.now()})
	}
}

// encode writes v as the server's writeJSON does, into a recorded
// response: the header, the status line and the JSON body.
func encode(v any) {
	w := httptest.NewRecorder()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

func items(es []rank.Entry) []serve.Item {
	out := make([]serve.Item, len(es))
	for i, e := range es {
		out[i] = serve.Item{Item: e.Item, Score: e.Score}
	}
	return out
}

// mergeExclusion is the serve path's exclusion over a sorted id list:
// rank.TopKDropped visits items in increasing order, so one forward
// pointer answers every membership query.
func mergeExclusion(pos []int32) func(int32) bool {
	idx := 0
	return func(i int32) bool {
		for idx < len(pos) && pos[idx] < i {
			idx++
		}
		return idx < len(pos) && pos[idx] == i
	}
}

// replay re-runs the layer calls of op, which was request rid and was
// answered with body.
func (r *Replayer) replay(rid int, op *Op, body []byte) {
	hits := r.predictedHits(rid)
	params := r.stack.Servers[0].Params()
	buf := r.buf
	switch op.Kind {
	case opKnown:
		u := op.User
		// A cache hit skips every layer but the encode, which then encodes
		// the served list.
		var its []serve.Item
		if hits[0] {
			var resp serve.RecommendResponse
			_ = json.Unmarshal(body, &resp)
			its = resp.Items
		} else {
			its = items(r.knownMiss(rid, params, u, buf))
		}
		r.span(rid, "encode", func() { encode(serve.RecommendResponse{User: &u, Items: its}) })
	case opCold:
		var uf []float64
		r.span(rid, "foldin", func() { uf, _ = mf.FoldInUser(params, op.Items, r.reg) })
		var top []rank.Entry
		if r.ivf {
			var excl, cells []int32
			r.span(rid, "merge", func() {
				excl = append([]int32(nil), op.Items...)
				sort.Slice(excl, func(a, b int) bool { return excl[a] < excl[b] })
			})
			r.span(rid, "probe", func() { cells = r.index.ProbeCells(uf, 0) })
			r.span(rid, "score", func() { top, _ = r.index.SearchCells(uf, cells, r.k, excl) })
		} else {
			var seen map[int32]bool
			r.span(rid, "merge", func() {
				seen = make(map[int32]bool, len(op.Items))
				for _, it := range op.Items {
					seen[it] = true
				}
			})
			r.span(rid, "score", func() { params.ScoreAllFoldIn(uf, buf) })
			r.span(rid, "topk", func() { top, _ = rank.TopKDropped(buf, r.k, func(i int32) bool { return seen[i] }) })
		}
		r.span(rid, "encode", func() { encode(serve.RecommendResponse{Items: items(top)}) })
	case opBatch:
		var served serve.BatchResponse
		_ = json.Unmarshal(body, &served)
		results := make([]serve.BatchResult, len(op.Batch))
		var miss []int32
		var missAt []int
		for i, u := range op.Batch {
			if !hits[i] {
				miss = append(miss, u)
				missAt = append(missAt, i)
			} else if i < len(served.Results) {
				results[i] = served.Results[i]
			}
		}
		if len(miss) > 0 {
			rows := score.NewScoreRows(len(miss), params.NumItems())
			eng := score.NewEngine(params)
			r.span(rid, "score", func() { eng.ScoreUsersParallel(miss, rows) })
			r.span(rid, "topk", func() {
				for j, u := range miss {
					top, _ := rank.TopKDropped(rows[j], r.k, mergeExclusion(r.positives(u)))
					results[j].Items = items(top)
				}
			})
		}
		r.span(rid, "encode", func() { encode(serve.BatchResponse{Results: results}) })
	case opWrite:
		u, it := op.User, op.Items[0]
		var merged []int32
		r.addExtra(u, it)
		r.span(rid, "merge", func() { merged = r.positives(u) })
		r.span(rid, "foldin", func() { _, _ = mf.FoldInUser(r.stack.Servers[0].BaseParams(), merged, r.reg) })
		r.span(rid, "append", func() { _, _ = r.shadow.Append(u, it, time.Now()) })
		r.span(rid, "encode", func() { encode(serve.FeedbackResponse{Status: "ok", Events: 1, Applied: 1}) })
	}
}

// knownMiss replays a known user's cache-miss path.
func (r *Replayer) knownMiss(rid int, params mf.Params, u int32, buf []float64) []rank.Entry {
	var top []rank.Entry
	if r.ivf {
		uf := params.UserVector(u, nil)
		var cells []int32
		r.span(rid, "probe", func() { cells = r.index.ProbeCells(uf, 0) })
		r.span(rid, "score", func() { top, _ = r.index.SearchCells(uf, cells, r.k, r.positives(u)) })
		return top
	}
	var excl func(int32) bool
	r.span(rid, "score", func() { params.ScoreAll(u, buf) })
	r.span(rid, "merge", func() { excl = mergeExclusion(r.positives(u)) })
	r.span(rid, "topk", func() { top, _ = rank.TopKDropped(buf, r.k, excl) })
	return top
}
