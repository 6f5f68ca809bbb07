package retrieval

import (
	"fmt"
	"math"
	"slices"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
)

// Index is a cluster-pruned IVF index over one immutable model's item
// factors. It is read-only after construction and safe for concurrent
// queries; the serve path builds a fresh Index on every model swap, so an
// Index never outlives the model generation it was built from.
//
// Layout: item rows (dim floats each) and biases are stored cell-major —
// each cell's members sit contiguously, ids ascending within the cell.
// Probing a cell is then a dense streaming scan at the same cache
// behavior as the exact sweep; the speedup over exact is almost exactly
// the fraction of the catalog pruned away. The same layout describes the
// single-cell exact view (see ExactView), whose one cell is the source
// model's own item matrix in id order.
type Index struct {
	dim    int // latent dimensionality d
	augDim int // d + 2: bias coordinate + norm-augmentation coordinate
	nlist  int
	nprobe int // default probe width; Search can override per query

	// centroids holds nlist rows of augDim coordinates, unit-norm (or
	// zero for a cell that only ever held quarantined items).
	centroids []float64

	// ids lists every item id exactly once, cell-major, ascending within
	// each cell; slot j of ids is row j of the item matrix (stride dim)
	// and entry j of the biases. offsets[c]..offsets[c+1] is cell c's
	// span. Exactly one of v64/v32 is non-nil: an index over a float32
	// parameter set (mf.Factors32) keeps float32 rows and scans them with
	// the mixed-precision kernel, halving the bytes each probe streams.
	// The matching bias slice is nil when the model has no bias term.
	ids     []int32
	v64     []float64
	b64     []float64
	v32     []float32
	b32     []float32
	offsets []int32

	// src keeps the source parameter set reachable while the index reads
	// its rows in place (the exact view): an mmap-backed set is unmapped
	// by a finalizer once unreachable, and a slice into the mapping does
	// not keep it alive on its own.
	src mf.Params

	numItems  int
	nonFinite int // items quarantined for non-finite parameters
}

// BuildIVF constructs the index: augment every item vector onto the
// common-norm sphere (folding the bias in), run seeded spherical k-means
// as the coarse quantizer, and pack items into cell-major inverted lists.
// The build is deterministic given (m, cfg) and never panics on
// degenerate input — non-finite rows, zero-norm items, duplicate vectors,
// and NLists > items are all handled (see augmentItems and kmeans).
//
// m may be any parameter representation. A float32 source (mf.Factors32)
// is packed as float32 rows: the clustering geometry is computed on the
// exactly-widened float64 values, so building from a quantized model and
// from its widened copy yields the same cells, and cell scans are
// bit-identical to dense float32 scoring. An online-update overlay
// (mf.Overlay) is built from its base: item parameters are never
// overlaid, and unwrapping keeps a float32 base on the float32 layout.
func BuildIVF(m mf.Params, cfg Config) (*Index, error) {
	m = itemSource(m)
	if m == nil {
		return nil, fmt.Errorf("retrieval: nil model")
	}
	n := m.NumItems()
	if n < 1 {
		return nil, fmt.Errorf("retrieval: model has no items")
	}
	cfg = cfg.withDefaults(n)
	d := m.Dim()
	aug, nonFinite := augmentItems(m)
	centroids, assign := kmeans(aug, n, d+2, cfg.NLists, cfg.Iters, mathx.NewRNG(cfg.Seed))
	nlist := len(centroids) / (d + 2)

	// Counting pass then a fill pass in ascending item id order, so each
	// cell's span ends up id-sorted without any per-cell sort.
	offsets := make([]int32, nlist+1)
	for _, c := range assign {
		offsets[c+1]++
	}
	for c := 0; c < nlist; c++ {
		offsets[c+1] += offsets[c]
	}
	ids := make([]int32, n)
	cursor := make([]int32, nlist)
	copy(cursor, offsets[:nlist])
	for i := 0; i < n; i++ {
		c := assign[i]
		ids[cursor[c]] = int32(i)
		cursor[c]++
	}
	ix := &Index{
		dim: d, augDim: d + 2,
		nlist: nlist, nprobe: cfg.NProbe,
		centroids: centroids,
		ids:       ids, offsets: offsets,
		numItems: n, nonFinite: nonFinite,
	}
	ix.pack(m)
	if ix.nprobe > nlist {
		ix.nprobe = nlist
	}
	return ix, nil
}

// pack copies m's item rows and biases into the index in ids order.
func (ix *Index) pack(m mf.Params) {
	n, d := ix.numItems, ix.dim
	if f32, ok := m.(*mf.Factors32); ok {
		_, v, b := f32.RawParams32()
		ix.v32 = make([]float32, n*d)
		if b != nil {
			ix.b32 = make([]float32, n)
		}
		for j, id := range ix.ids {
			copy(ix.v32[j*d:j*d+d], v[int(id)*d:int(id)*d+d])
			if b != nil {
				ix.b32[j] = b[id]
			}
		}
		return
	}
	ix.v64 = make([]float64, n*d)
	if m.HasBias() {
		ix.b64 = make([]float64, n)
	}
	var vbuf []float64
	for j, id := range ix.ids {
		vbuf = m.ItemVector(id, vbuf)
		copy(ix.v64[j*d:j*d+d], vbuf)
		if ix.b64 != nil {
			ix.b64[j] = m.Bias(id)
		}
	}
}

// NLists returns the number of k-means cells actually built (≤ Config.
// NLists when the catalog is smaller than the requested cell count).
func (ix *Index) NLists() int { return ix.nlist }

// NProbe returns the default probe width.
func (ix *Index) NProbe() int { return ix.nprobe }

// NumItems returns the indexed catalog size.
func (ix *Index) NumItems() int { return ix.numItems }

// Dim returns the latent dimensionality the index was built for.
func (ix *Index) Dim() int { return ix.dim }

// NonFinite returns how many items were quarantined at build time for
// carrying NaN/Inf parameters. Such items still live in a cell (so the
// partition stays exhaustive) but their exact re-rank score is non-finite
// and Search drops them, exactly as the dense path does.
func (ix *Index) NonFinite() int { return ix.nonFinite }

// ProbeCells returns the indices of the nprobe cells whose centroids best
// match the query (<= 0 means the index default), in ascending cell
// order. The query is the raw user factor vector (d coordinates); the
// implicit augmented query is [uf, 1, 0], so only the first d+1 centroid
// coordinates participate. A NaN affinity (poisoned query) is ranked as
// -Inf — cells are never dropped, only ordered, so nprobe == nlist always
// probes everything and degenerates to exact retrieval whatever the query
// contains (a full-width probe skips the centroid scan: its answer is
// every cell). The serve path calls this separately from SearchCells so
// the two phases land in distinct trace stages.
func (ix *Index) ProbeCells(uf []float64, nprobe int) []int32 {
	if nprobe <= 0 {
		nprobe = ix.nprobe
	}
	if nprobe >= ix.nlist {
		cells := make([]int32, ix.nlist)
		for c := range cells {
			cells[c] = int32(c)
		}
		return cells
	}
	d, D := ix.dim, ix.augDim
	h := rank.NewHeap(nprobe)
	for c := 0; c < ix.nlist; c++ {
		row := ix.centroids[c*D : c*D+D]
		a := mathx.Dot(uf, row[:d]) + row[d]
		if math.IsNaN(a) {
			a = math.Inf(-1)
		}
		h.Push(rank.Entry{Item: int32(c), Score: a})
	}
	top := h.Finish()
	cells := make([]int32, len(top))
	for i, e := range top {
		cells[i] = e.Item
	}
	slices.Sort(cells)
	return cells
}

// Probe returns the candidate item ids the query would re-rank at the
// given probe width (<= 0 means the index default), merged into one
// ascending id list. Search is the production path; Probe exists so tests
// can assert candidate-set invariants directly.
func (ix *Index) Probe(uf []float64, nprobe int) []int32 {
	cells := ix.ProbeCells(uf, nprobe)
	total := 0
	for _, c := range cells {
		total += int(ix.offsets[c+1] - ix.offsets[c])
	}
	cands := make([]int32, 0, total)
	for _, c := range cells {
		cands = append(cands, ix.ids[ix.offsets[c]:ix.offsets[c+1]]...)
	}
	slices.Sort(cands)
	return cands
}

// Search returns the top k items for the query among the members of the
// nprobe best cells (nprobe <= 0 uses the index default), plus the count
// of candidates dropped for non-finite scores. Every candidate is scored
// with the same operations as the dense kernel — mathx.Dot (mathx.DotF64F32
// for float32 rows) over the item row, then the bias — so scores are
// bit-identical to exact retrieval; the only approximation is which items
// get scored at all. With nprobe == nlist the result (entries and dropped
// count) is bit-identical to rank.TopKDropped over engine.ScoreAll output.
//
// excludeSorted is an ascending list of item ids to skip (the caller's
// train positives; may be nil). Fewer than k entries come back when
// pruning or exclusion leaves fewer than k scoreable candidates — callers
// must treat k as a cap, not a promise.
func (ix *Index) Search(uf []float64, k, nprobe int, excludeSorted []int32) ([]rank.Entry, int) {
	return ix.SearchCells(uf, ix.ProbeCells(uf, nprobe), k, excludeSorted)
}

// SearchCells is the scoring half of Search: exactly re-rank the members
// of the given cells (a ProbeCells result) and return the top k. Splitting
// the phases lets the serve path time candidate selection ("probe") and
// scan-plus-select ("score") as separate trace stages. Score, exclusion
// and selection are one fused pass: no score buffer, no second sweep.
func (ix *Index) SearchCells(uf []float64, cells []int32, k int, excludeSorted []int32) ([]rank.Entry, int) {
	if k <= 0 {
		return nil, 0 // mirror rank.TopKDropped: no selection, no counting
	}
	h := rank.NewHeap(k)
	dropped := 0
	d := ix.dim
	ids, v64, b64, v32, b32 := ix.ids, ix.v64, ix.b64, ix.v32, ix.b32
	ex, lp := excludeSorted, len(excludeSorted)
	// Floor-rejection fast path: once the heap is full, a candidate that
	// would not displace the root is dropped with a local comparison
	// instead of a Push call. The floor refreshes after every real push.
	full := false
	var floorScore float64
	var floorItem int32
	for _, c := range cells {
		lo, hi := int(ix.offsets[c]), int(ix.offsets[c+1])
		if lo == hi {
			continue
		}
		// Ids ascend within a cell, so one binary search positions a
		// merge pointer for the whole span.
		p := lp
		if lp > 0 {
			p, _ = slices.BinarySearch(ex, ids[lo])
		}
		for j := lo; j < hi; j++ {
			id := ids[j]
			if p < lp {
				for p < lp && ex[p] < id {
					p++
				}
				if p < lp && ex[p] == id {
					continue
				}
			}
			off := j * d
			// The branches are taken the same way for every candidate of
			// a query, so they predict perfectly; both kernels accumulate
			// in float64 with the same operation order as the parameter
			// set's own ScoreAll (see internal/mathx), bias added last.
			var s float64
			if v32 != nil {
				s = mathx.DotF64F32(uf, v32[off:off+d])
				if b32 != nil {
					s += float64(b32[j])
				}
			} else {
				s = mathx.Dot(uf, v64[off:off+d])
				if b64 != nil {
					s += b64[j]
				}
			}
			// Non-finite check strictly before floor rejection: a -Inf
			// score must count as dropped (as the dense path counts it),
			// not silently fail the floor comparison.
			if math.IsNaN(s) || math.IsInf(s, 0) {
				dropped++
				continue
			}
			if full && (s < floorScore || (s == floorScore && id > floorItem)) {
				continue
			}
			h.Push(rank.Entry{Item: id, Score: s})
			if r := h.Root(); full || h.Len() == k {
				floorScore, floorItem = r.Score, r.Item
				full = true
			}
		}
	}
	return h.Finish(), dropped
}

// augmentItems maps every item onto the common-norm sphere: row i is
// [V_i, b_i, √(M² − ‖V_i‖² − b_i²)] / M where M is the largest augmented
// norm, making every finite row unit-norm. Items with non-finite
// parameters are quarantined to the zero vector — they cluster
// deterministically (affinity 0 everywhere), stay in the partition, and
// are eliminated at re-rank time by their non-finite exact score. When
// every item is zero-norm (an untrained model) all rows become the same
// unit vector e_{d+1}, which k-means handles like any duplicate set.
func augmentItems(m mf.Params) (aug []float64, nonFinite int) {
	n, d := m.NumItems(), m.Dim()
	D := d + 2
	aug = make([]float64, n*D)
	norm2 := make([]float64, n)
	bad := make([]bool, n)
	var max2 float64
	var vbuf []float64
	for i := 0; i < n; i++ {
		b := m.Bias(int32(i))
		s := b * b
		ok := isFinite(b)
		vf := m.ItemVector(int32(i), vbuf)
		vbuf = vf
		for _, x := range vf {
			s += x * x
			ok = ok && isFinite(x)
		}
		if !ok || !isFinite(s) {
			bad[i] = true
			nonFinite++
			continue
		}
		norm2[i] = s
		if s > max2 {
			max2 = s
		}
	}
	maxNorm := math.Sqrt(max2)
	for i := 0; i < n; i++ {
		if bad[i] {
			continue // quarantined: the zero vector
		}
		row := aug[i*D : i*D+D]
		if maxNorm == 0 {
			row[D-1] = 1
			continue
		}
		vf := m.ItemVector(int32(i), vbuf)
		vbuf = vf
		for j, x := range vf {
			row[j] = x / maxNorm
		}
		row[d] = m.Bias(int32(i)) / maxNorm
		rem := 1 - norm2[i]/max2
		if rem < 0 {
			rem = 0 // guard float cancellation on the max-norm item itself
		}
		row[d+1] = math.Sqrt(rem)
	}
	return aug, nonFinite
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
