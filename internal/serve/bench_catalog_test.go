package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// catalogServer builds an exact-mode float32 server over a full ML20M-sized
// catalog (26,744 items, d=16) with 2,000 users holding 60 positives each:
// the shape where the dense scan dominates a request.
func catalogServer(b *testing.B) *Server {
	b.Helper()
	const users, items, dim = 2000, 26744, 16
	rng := mathx.NewRNG(11)
	bld := dataset.NewBuilder("catalog", users, items)
	for u := 0; u < users; u++ {
		for j := 0; j < 60; j++ {
			if err := bld.Add(int32(u), int32(rng.Intn(items))); err != nil {
				b.Fatal(err)
			}
		}
	}
	m := mf.MustNew(mf.Config{NumUsers: users, NumItems: items, Dim: dim, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(12), 0.1)
	s, err := NewFromParams(mf.QuantizeF32(m), bld.Build())
	if err != nil {
		b.Fatal(err)
	}
	s.SetCacheSize(0)
	return s
}

// BenchmarkCatalogExactGet is one uncached exact /recommend over the full
// catalog.
func BenchmarkCatalogExactGet(b *testing.B) {
	s := catalogServer(b)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/recommend?user=%d&k=10", i%2000), nil)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}

// BenchmarkCatalogExactBatch4 is an uncached four-user /recommend/batch
// over the full catalog.
func BenchmarkCatalogExactBatch4(b *testing.B) {
	s := catalogServer(b)
	h := s.Handler()
	bodies := make([][]byte, 64)
	for j := range bodies {
		req := BatchRequest{Requests: make([]BatchEntry, 4)}
		for e := range req.Requests {
			u := int32((4*j + e) % 2000)
			req.Requests[e] = BatchEntry{User: &u, K: 10}
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[j] = body
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/recommend/batch", bytes.NewReader(bodies[i%len(bodies)]))
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
}
