package retrieval

import (
	"fmt"

	"clapf/internal/mf"
)

// ExactView returns a single-cell Index over m's own item rows and biases
// in id order — exact retrieval expressed as a full-width IVF scan.
// ProbeCells always answers its one cell and SearchCells runs the same
// fused score, merge-exclude and floor-reject sweep the IVF path runs, so
// every ranking on the serve path goes through one kernel. Entries and the
// dropped count are bit-identical to rank.TopKDropped over m's ScoreAll
// (or ScoreAllFoldIn for a folded-in query): float32 rows scan with
// mathx.DotF64F32, float64 rows with mathx.Dot, the bias added after the
// dot, exactly as the parameter sets' own kernels do.
//
// The view does not copy a *mf.Model's or *mf.Factors32's rows — it reads
// them in place, so an mmap-backed float32 set is not doubled on the heap
// — and it keeps m reachable for as long as the view is. An mf.Overlay is
// viewed through its base (item parameters are never overlaid); queries
// for overlaid users pass the overlay's UserVector. Other Params
// implementations are copied into a float64 layout. Nothing is quarantined,
// so NonFinite is always 0: non-finite scores are dropped at scan time.
func ExactView(m mf.Params) (*Index, error) {
	m = itemSource(m)
	if m == nil {
		return nil, fmt.Errorf("retrieval: nil model")
	}
	n, d := m.NumItems(), m.Dim()
	if n < 1 {
		return nil, fmt.Errorf("retrieval: model has no items")
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	// No centroids: a single-cell ProbeCells is always full width, which
	// answers every cell without scanning them.
	ix := &Index{
		dim: d, augDim: d + 2,
		nlist: 1, nprobe: 1,
		ids: ids, offsets: []int32{0, int32(n)},
		src:      m,
		numItems: n,
	}
	switch p := m.(type) {
	case *mf.Factors32:
		_, ix.v32, ix.b32 = p.RawParams32()
	case *mf.Model:
		_, ix.v64, ix.b64 = p.RawParams()
	default:
		ix.pack(m)
	}
	return ix, nil
}

// itemSource returns the parameter set that owns m's item rows: the base
// of an online-update overlay, m itself otherwise.
func itemSource(m mf.Params) mf.Params {
	if ov, ok := m.(*mf.Overlay); ok {
		return ov.Base()
	}
	return m
}
