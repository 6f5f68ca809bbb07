package retrieval

import (
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// catalogF32 is a Gaussian float32 parameter set the size of the full
// ML20M catalog (26,744 items, d=16); scan cost does not depend on the
// values.
func catalogF32(b *testing.B) *mf.Factors32 {
	b.Helper()
	m := mf.MustNew(mf.Config{NumUsers: 512, NumItems: 26744, Dim: 16, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(5), 0.1)
	return mf.QuantizeF32(m)
}

// benchQueries returns every user's widened factor row and a sorted
// 60-item exclusion list for it.
func benchQueries(f *mf.Factors32) ([][]float64, [][]int32) {
	rng := mathx.NewRNG(6)
	ufs := make([][]float64, f.NumUsers())
	excl := make([][]int32, f.NumUsers())
	for u := range ufs {
		ufs[u] = f.UserVector(int32(u), nil)
		step := f.NumItems() / 60
		for j := 0; j < 60; j++ {
			excl[u] = append(excl[u], int32(j*step+rng.Intn(step)))
		}
	}
	return ufs, excl
}

// BenchmarkIVFSearchF32 is one default-width IVF query (probe + pruned
// scan) over the packed float32 cells.
func BenchmarkIVFSearchF32(b *testing.B) {
	f := catalogF32(b)
	ix, err := BuildIVF(f, Config{})
	if err != nil {
		b.Fatal(err)
	}
	ufs, excl := benchQueries(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % len(ufs)
		ix.Search(ufs[u], 10, 0, excl[u])
	}
}
