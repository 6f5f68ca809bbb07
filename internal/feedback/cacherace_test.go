package feedback

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFeedbackCacheFillRace races cache-filling /recommend reads against
// POST /feedback writes for the same users: once a write is acknowledged,
// the written item must never come back in that user's list. Readers keep
// missing and filling the cache for the user being written, so a fill
// computed before the write's invalidation and stored after it would
// serve the acknowledged item from the cache. Run under -race.
func TestFeedbackCacheFillRace(t *testing.T) {
	p := bootCapped(t, 0)
	h := p.srv.Handler()
	topK := func(u int32) ([]int32, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/recommend?user=%d&k=10", u), nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("recommend = %d: %s", rec.Code, rec.Body.String())
		}
		var body struct {
			Items []struct {
				Item int32 `json:"item"`
			} `json:"items"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			return nil, err
		}
		out := make([]int32, len(body.Items))
		for i, it := range body.Items {
			out[i] = it.Item
		}
		return out, nil
	}

	var current atomic.Int32 // the user being written
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := topK(current.Load()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for round := 0; round < 60; round++ {
		u := int32(1 + round%4)
		current.Store(u)
		before, err := topK(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(before) == 0 {
			continue
		}
		target := before[0]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/feedback",
			strings.NewReader(fmt.Sprintf(`{"user":%d,"item":%d}`, u, target))))
		if rec.Code != http.StatusOK {
			t.Fatalf("feedback = %d: %s", rec.Code, rec.Body.String())
		}
		after, err := topK(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range after {
			if it == target {
				t.Fatalf("round %d: item %d recommended to user %d after its feedback was acknowledged", round, target, u)
			}
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
}
