package retrieval

import (
	"math"
	"slices"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
)

// randomModel draws an n×d Gaussian model (users, items, optional bias)
// and poisons a few item rows and biases with NaN and ±Inf so the dropped
// count is exercised.
func randomModel(rng *mathx.RNG, n, d int, bias bool) *mf.Model {
	m := mf.MustNew(mf.Config{NumUsers: 12, NumItems: n, Dim: d, UseBias: bias, InitStd: 0.1})
	m.InitGaussian(rng, 0.5)
	_, v, b := m.RawParams()
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for j := 0; j < 1+n/40; j++ {
		i := rng.Intn(n)
		v[i*d+rng.Intn(d)] = poison[rng.Intn(len(poison))]
		if b != nil {
			b[rng.Intn(n)] = poison[rng.Intn(len(poison))]
		}
	}
	return m
}

// randomExclusion returns a sorted, deduped exclusion list over [0, n),
// including the first and last ids when asked.
func randomExclusion(rng *mathx.RNG, n int, ends bool) []int32 {
	var ex []int32
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			ex = append(ex, int32(i))
		}
	}
	if ends {
		ex = append(ex, 0, int32(n-1))
		slices.Sort(ex)
		ex = slices.Compact(ex)
	}
	return ex
}

// denseTop is the reference two-pass ranking: a full score row, then
// rank.TopKDropped with a merge-pointer exclusion.
func denseTop(scores []float64, k int, ex []int32) ([]rank.Entry, int) {
	p := 0
	return rank.TopKDropped(scores, k, func(i int32) bool {
		for p < len(ex) && ex[p] < i {
			p++
		}
		return p < len(ex) && ex[p] == i
	})
}

// sameTop compares two rankings bit for bit: ids, score bits, dropped.
func sameTop(t *testing.T, what string, got []rank.Entry, gotDropped int, want []rank.Entry, wantDropped int) {
	t.Helper()
	if gotDropped != wantDropped || len(got) != len(want) {
		t.Fatalf("%s: %d entries (%d dropped), want %d (%d dropped)",
			what, len(got), gotDropped, len(want), wantDropped)
	}
	for i := range got {
		if got[i].Item != want[i].Item || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: entry %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestExactViewMatchesDense is the one-path property: for random models
// in every representation the exact view's SearchCells equals
// rank.TopKDropped over the parameter set's own ScoreAll (stored users,
// overlaid users) and ScoreAllFoldIn (folded-in queries), in entries,
// score bits and dropped count — across exclusions covering both ends of
// the id range, k beyond the remaining candidates, and k <= 0.
func TestExactViewMatchesDense(t *testing.T) {
	rng := mathx.NewRNG(41)
	for trial := 0; trial < 40; trial++ {
		n, d := 1+rng.Intn(300), 1+rng.Intn(19)
		m := randomModel(rng, n, d, trial%3 != 0)
		ov := mf.NewOverlay(mf.QuantizeF32(m))
		for u := int32(0); u < 12; u += 2 {
			row := make([]float64, d)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			if err := ov.Set(u, row); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range []mf.Params{m, mf.QuantizeF32(m), ov} {
			view, err := ExactView(p)
			if err != nil {
				t.Fatal(err)
			}
			scores := make([]float64, n)
			for u := int32(0); u < 12; u++ {
				ex := randomExclusion(rng, n, u%3 == 0)
				for _, k := range []int{-1, 0, 1, 7, n, n + 5} {
					uf := p.UserVector(u, nil)
					got, gotDropped := view.SearchCells(uf, view.ProbeCells(uf, 0), k, ex)
					p.ScoreAll(u, scores)
					want, wantDropped := denseTop(scores, k, ex)
					sameTop(t, "stored user", got, gotDropped, want, wantDropped)

					for j := range uf {
						uf[j] = rng.NormFloat64()
					}
					got, gotDropped = view.Search(uf, k, 0, ex)
					p.ScoreAllFoldIn(uf, scores)
					want, wantDropped = denseTop(scores, k, ex)
					sameTop(t, "folded-in query", got, gotDropped, want, wantDropped)
				}
			}
		}
	}
}

// TestExactViewSharesRows: the view reads the source's item rows in place
// — an mmap-backed float32 set must not be copied onto the heap — and an
// overlay is viewed through its base's float32 rows.
func TestExactViewSharesRows(t *testing.T) {
	m := randomModel(mathx.NewRNG(3), 50, 8, true)
	f := mf.QuantizeF32(m)
	_, v32, b32 := f.RawParams32()
	for _, p := range []mf.Params{f, mf.NewOverlay(f)} {
		view, err := ExactView(p)
		if err != nil {
			t.Fatal(err)
		}
		if &view.v32[0] != &v32[0] || &view.b32[0] != &b32[0] || view.v64 != nil {
			t.Errorf("%T: view copied the float32 rows", p)
		}
	}
	_, v64, b64 := m.RawParams()
	view, err := ExactView(m)
	if err != nil {
		t.Fatal(err)
	}
	if &view.v64[0] != &v64[0] || &view.b64[0] != &b64[0] {
		t.Error("*mf.Model: view copied the float64 rows")
	}
	if _, err := ExactView(nil); err == nil {
		t.Error("ExactView(nil) succeeded")
	}
}

// TestBuildIVFOverlayF32 is the regression for indexes built over an
// online-update overlay on a float32 base: the build must pack the base's
// float32 rows (not a widened float64 copy scanned with a different
// kernel), and a full-width probe must equal TopKDropped over ScoreAll
// bit for bit, for overlaid and stored users alike.
func TestBuildIVFOverlayF32(t *testing.T) {
	rng := mathx.NewRNG(17)
	m := randomModel(rng, 400, 16, true)
	ov := mf.NewOverlay(mf.QuantizeF32(m))
	if err := ov.Set(1, m.UserFactors(5)); err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIVF(ov, Config{NLists: 12})
	if err != nil {
		t.Fatal(err)
	}
	if ix.v32 == nil || ix.v64 != nil {
		t.Fatal("IVF over an overlaid float32 base packed float64 rows")
	}
	scores := make([]float64, 400)
	for u := int32(0); u < 12; u++ {
		ex := randomExclusion(rng, 400, true)
		got, gotDropped := ix.Search(ov.UserVector(u, nil), 10, ix.NLists(), ex)
		ov.ScoreAll(u, scores)
		want, wantDropped := denseTop(scores, 10, ex)
		sameTop(t, "overlay full probe", got, gotDropped, want, wantDropped)
	}
}
