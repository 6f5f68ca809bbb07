package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"clapf/internal/mf"
	"clapf/internal/rank"
)

// TestBatchParallelMatchesSingle: a batch large enough to fan out over
// several goroutines answers every entry exactly like the single-request
// path, and both equal the dense two-pass reference (a full ScoreAll row
// plus rank.TopKDropped over the user's positives) to the last score bit —
// for float64 and float32 parameters, with online-update overlay users in
// the mix and with repeated users racing through the cache fill.
func TestBatchParallelMatchesSingle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s64, train := testServer(t)
	m := s64.Params().(*mf.Model)
	for _, p := range []mf.Params{m, mf.QuantizeF32(m)} {
		s, err := NewFromParams(p, train)
		if err != nil {
			t.Fatal(err)
		}
		// Overlay every third user, the way an online update does.
		ov := mf.NewOverlay(p)
		for u := int32(0); u < int32(train.NumUsers()); u += 3 {
			if err := ov.Set(u, m.UserFactors((u+7)%int32(train.NumUsers()))); err != nil {
				t.Fatal(err)
			}
		}
		st := *s.live.Load()
		st.params, st.overlay = ov, ov
		s.live.Store(&st)
		h := s.Handler()

		var req BatchRequest
		for j := 0; j < 48; j++ {
			u := int32(j % 20) // every user appears two or three times
			req.Requests = append(req.Requests, BatchEntry{User: &u, K: 1 + j%9})
		}
		req.Requests = append(req.Requests, BatchEntry{Items: []int32{4, 9, 2}, K: 6})
		rec, resp := postBatch(t, h, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%T: batch status %d: %s", p, rec.Code, rec.Body.String())
		}

		scores := make([]float64, p.NumItems())
		for j, e := range req.Requests[:48] {
			u, k := *e.User, e.K
			ov.ScoreAll(u, scores)
			pos, idx := train.Positives(u), 0
			want, _ := rank.TopKDropped(scores, k, func(i int32) bool {
				for idx < len(pos) && pos[idx] < i {
					idx++
				}
				return idx < len(pos) && pos[idx] == i
			})
			_, single := get(t, h, fmt.Sprintf("/recommend?user=%d&k=%d", u, k))
			got := resp.Results[j].Items
			if len(got) != len(want) || len(single.Items) != len(want) {
				t.Fatalf("%T entry %d: batch %d items, single %d, reference %d",
					p, j, len(got), len(single.Items), len(want))
			}
			for r, w := range want {
				ref := Item{Item: w.Item, Score: w.Score}
				if got[r] != ref || single.Items[r] != ref {
					t.Fatalf("%T entry %d rank %d: batch %+v, single %+v, reference %+v",
						p, j, r, got[r], single.Items[r], ref)
				}
			}
		}
		_, cold := get(t, h, "/recommend?items=4,9,2&k=6")
		if fmt.Sprint(cold.Items) != fmt.Sprint(resp.Results[48].Items) {
			t.Errorf("%T cold-start: batch %v, single %v", p, resp.Results[48].Items, cold.Items)
		}
	}
}

// TestFanOutReraisesPanic: a panic in one fanned-out call must surface on
// the calling goroutine (where the recover middleware sits) after the
// other workers finish, not kill the process from a worker goroutine.
func TestFanOutReraisesPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if p := recover(); p != "entry 5" {
			t.Fatalf("recovered %v, want the entry's panic value", p)
		}
	}()
	fanOut(16, func(i int) {
		if i == 5 {
			panic("entry 5")
		}
	})
	t.Fatal("fanOut returned normally after a panicking call")
}
