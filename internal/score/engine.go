// Package score is the shared dense scoring engine behind every serve and
// evaluation surface in the repository. All of them bottleneck on the same
// kernel — for a user u, score every item:
//
//	scores = U_u · Vᵀ + b
//
// costing O(m·d) per user. Scoring users one at a time streams the whole
// item-factor matrix V through the cache hierarchy once per user; scoring a
// batch with the item loop *outside* the user loop keeps each block of V
// hot across the entire batch, so V is effectively read once per batch
// block instead of once per user. Engine packages that blocked kernel plus
// a worker pool for large batches, and is reused by the evaluation
// protocol, clapf-bench, and the benchmark harness. The HTTP serve path
// does not use it: serving ranks through internal/retrieval's fused
// score-and-select sweep, which needs no full score row.
//
// Every method computes bit-identical values to mf.Model.ScoreAll — the
// per-item dot products are the same operations in the same order — so
// swapping the engine into a ranking path can never change a result, only
// its cost.
package score

import (
	"fmt"
	"runtime"
	"sync"

	"clapf/internal/mf"
)

// blockBytes is the target footprint of one item-factor block. 32 KiB
// keeps a block resident in L1d on anything modern while leaving room for
// the batch's user factors and output rows.
const blockBytes = 32 << 10

// minBlockItems bounds the block size from below so tiny dimensionalities
// don't degenerate into per-item loop overhead.
const minBlockItems = 16

// Engine scores users against one immutable parameter set — a float64
// mf.Model or a float32 mf.Factors32; the blocked kernel is generic over
// mf.Params. It is stateless beyond its configuration, safe for concurrent
// use, and cheap to construct — the serve path builds a fresh Engine on
// every model swap.
type Engine struct {
	m       mf.Params
	block   int // items per blocked-kernel tile
	workers int // max goroutines for ScoreUsersParallel
}

// Option configures an Engine.
type Option func(*Engine)

// WithBlockItems overrides the tile size of the blocked kernel (mainly for
// tests that want to force block-boundary coverage). n < 1 keeps the
// default.
func WithBlockItems(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.block = n
		}
	}
}

// WithWorkers bounds the goroutines ScoreUsersParallel may use. n < 1
// keeps the default of GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.workers = n
		}
	}
}

// NewEngine builds an engine over any parameter set. The default block
// size targets blockBytes of item factors per tile — sized by the
// representation's element width, so a float32 model fits twice the items
// per tile; the default worker cap is GOMAXPROCS.
func NewEngine(m mf.Params, opts ...Option) *Engine {
	e := &Engine{
		m:       m,
		block:   blockBytes / (m.ElemBytes() * m.Dim()),
		workers: runtime.GOMAXPROCS(0),
	}
	if e.block < minBlockItems {
		e.block = minBlockItems
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Params returns the wrapped parameter set.
func (e *Engine) Params() mf.Params { return e.m }

// ScoreAll fills out with every item's score for user u — the single-user
// path, satisfying eval.Scorer. Identical to the parameter set's ScoreAll.
func (e *Engine) ScoreAll(u int32, out []float64) { e.m.ScoreAll(u, out) }

// ScoreUsers fills out[i] with the full score row for users[i] using the
// sequential blocked kernel: the item dimension is tiled so each tile of V
// stays cache-resident across the whole batch. len(out) must be at least
// len(users) and every row must have length NumItems.
func (e *Engine) ScoreUsers(users []int32, out [][]float64) {
	if len(out) < len(users) {
		panic(fmt.Sprintf("score: %d output rows for %d users", len(out), len(users)))
	}
	m := e.m.NumItems()
	for lo := 0; lo < m; lo += e.block {
		hi := lo + e.block
		if hi > m {
			hi = m
		}
		for ui, u := range users {
			e.m.ScoreRange(u, lo, hi, out[ui])
		}
	}
}

// ScoreUsersParallel shards the batch across up to WithWorkers goroutines,
// each running the blocked kernel over its contiguous share. Row i of out
// always corresponds to users[i], so results are identical to ScoreUsers
// for any worker count.
func (e *Engine) ScoreUsersParallel(users []int32, out [][]float64) {
	if len(out) < len(users) {
		panic(fmt.Sprintf("score: %d output rows for %d users", len(out), len(users)))
	}
	workers := e.workers
	if workers > len(users) {
		workers = len(users)
	}
	if workers <= 1 {
		e.ScoreUsers(users, out)
		return
	}
	var wg sync.WaitGroup
	chunk := (len(users) + workers - 1) / workers
	for start := 0; start < len(users); start += chunk {
		end := start + chunk
		if end > len(users) {
			end = len(users)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			e.ScoreUsers(users[lo:hi], out[lo:hi])
		}(start, end)
	}
	wg.Wait()
}

// NewScoreRows allocates a batch output buffer: rows score rows of
// NumItems(model) columns each, backed by one contiguous allocation.
func NewScoreRows(rows, numItems int) [][]float64 {
	flat := make([]float64, rows*numItems)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = flat[i*numItems : (i+1)*numItems : (i+1)*numItems]
	}
	return out
}
