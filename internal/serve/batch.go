package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"clapf/internal/obs/trace"
)

// maxBatchBody bounds the /recommend/batch request body. A full batch of
// MaxBatch entries, each with a MaxHistory-item history of multi-digit
// ids, fits comfortably; anything larger is hostile or misconfigured.
const maxBatchBody = 8 << 20

// BatchEntry is one recommendation request inside a batch: either a known
// user id or a cold-start history, plus an optional per-entry k (0 means
// the default of 10, values above MaxK are clamped, like the GET path).
type BatchEntry struct {
	User  *int32  `json:"user,omitempty"`
	Items []int32 `json:"items,omitempty"`
	K     int     `json:"k,omitempty"`
}

// BatchRequest is the /recommend/batch payload.
type BatchRequest struct {
	Requests []BatchEntry `json:"requests"`
}

// BatchResult is one entry's outcome. Exactly one of Items or Error is
// meaningful: a malformed entry reports its error in place so the rest of
// the batch still gets answers.
type BatchResult struct {
	User  *int32 `json:"user,omitempty"`
	Items []Item `json:"items,omitempty"`
	Error string `json:"error,omitempty"`
}

// BatchResponse is the /recommend/batch response; Results is parallel to
// the request's Requests.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// handleRecommendBatch serves many recommendations from one request. The
// whole batch runs against a single liveState snapshot, so every entry
// sees the same model generation — and the same retrieval mode: known-user
// entries go through exactly the path the single request uses
// (topKForUser: cache, then the index sweep, then the cache fill) and
// cold-start entries through topKColdStart, so every cache key carries the
// mode and no entry can fall back to a different kernel. Entries are
// independent, so they fan out over at most GOMAXPROCS goroutines; repeated
// users in one batch coalesce through the cache fill.
func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var req BatchRequest
	sp := trace.StartSpanNoCtx(ctx, "decode")
	err := json.NewDecoder(r.Body).Decode(&req)
	sp.End()
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.httpError(ctx, w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch body exceeds %d bytes", tooLarge.Limit))
			return
		}
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("malformed batch request: %v", err))
		return
	}
	if len(req.Requests) == 0 {
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Requests) > s.MaxBatch {
		s.httpError(ctx, w, http.StatusBadRequest,
			fmt.Errorf("batch has %d entries, limit %d", len(req.Requests), s.MaxBatch))
		return
	}

	st := s.live.Load()
	results := make([]BatchResult, len(req.Requests))
	fanOut(len(req.Requests), func(idx int) {
		s.batchEntry(ctx, st, idx, req.Requests[idx], &results[idx])
	})
	s.writeJSON(ctx, w, http.StatusOK, BatchResponse{Results: results})
}

// batchEntry answers one batch entry into res under its own "entry" span
// (note = entry index), so a slow batch shows which member dragged it
// down; the entry's stages nest inside.
func (s *Server) batchEntry(ctx context.Context, st *liveState, idx int, e BatchEntry, res *BatchResult) {
	ectx, esp := trace.StartSpan(ctx, "entry")
	if esp.Active() {
		esp.SetNote(strconv.Itoa(idx))
	}
	defer esp.End()
	k, err := clampBatchK(e.K, s.MaxK)
	if err != nil {
		res.Error = err.Error()
		return
	}
	switch {
	case e.User != nil && len(e.Items) > 0:
		res.Error = "pass either user or items, not both"
	case e.User != nil:
		u := *e.User
		if u < 0 || int(u) >= st.params.NumUsers() {
			res.Error = fmt.Sprintf("invalid user %d", u)
			return
		}
		res.User = e.User
		res.Items = s.topKForUser(ectx, st, u, k)
	case len(e.Items) > 0:
		history, err := dedupeIDs(e.Items, st.params.NumItems(), s.MaxHistory)
		if err != nil {
			res.Error = err.Error()
			return
		}
		items, err := s.topKColdStart(ectx, st, history, k)
		if err != nil {
			res.Error = err.Error()
			return
		}
		res.Items = items
	default:
		res.Error = "entry needs a user or a non-empty items history"
	}
}

// fanOut runs fn(0..n-1) over at most GOMAXPROCS goroutines, the calling
// goroutine included, and returns when every call has. A panic in any call
// is re-raised on the calling goroutine once the others finish, so the
// handler's recover middleware still turns it into a 500 instead of the
// process dying on a worker goroutine.
func fanOut(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var panicked atomic.Pointer[any]
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				panicked.CompareAndSwap(nil, &p)
			}
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}

// clampBatchK normalizes a batch entry's k exactly like parseK does for
// the GET path: absent (0) means 10, above maxK clamps, negative is an
// error.
func clampBatchK(k, maxK int) (int, error) {
	if k == 0 {
		return 10, nil
	}
	if k < 0 {
		return 0, fmt.Errorf("invalid k %d", k)
	}
	if k > maxK {
		k = maxK
	}
	return k, nil
}
