// Package serve exposes a trained CLAPF model over HTTP — the deployment
// surface a downstream adopter runs behind their application. Endpoints:
//
//	GET  /healthz                     liveness + model dimensions + uptime/request totals
//	GET  /readyz                      readiness (503 while draining or before a model is live)
//	GET  /recommend?user=U&k=K        top-k unobserved items for a known user
//	GET  /recommend?items=1,2,3&k=K   cold-start: fold the history in, then rank
//	POST /recommend/batch             many users and/or histories in one request
//	GET  /similar?item=I&k=K          nearest items by factor cosine
//	GET  /metrics                     Prometheus text exposition
//	POST /admin/reload                hot model reload (opt-in: EnableAdminReload)
//
// All responses are JSON except /metrics. Handlers are read-only over an
// immutable dataset and a liveState — the model, its retrieval index, and
// its top-K result cache — held behind one atomic pointer, so they are
// safe for concurrent use and the model can be hot-swapped (SIGHUP in
// cmd/clapf-serve) without dropping a request. Because the cache travels
// inside the liveState, a swap invalidates it atomically: no request can
// pair the new model with entries computed under the old one. The handler
// chain is hardened (see harden.go): panics become 500s, overload sheds
// with 503 (probes exempt), and every request carries a deadline. Every
// request is recorded in the server's obs.Registry.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/obs/trace"
	"clapf/internal/rank"
	"clapf/internal/retrieval"
	"clapf/internal/store"
)

// liveState bundles everything that must change together when the model is
// swapped: the parameter set (a float64 *mf.Model or a float32, possibly
// mmap-backed, *mf.Factors32), the retrieval index over its item rows,
// and the top-K cache of its results. Requests load it once and use only
// that snapshot, so even mid-swap a request is internally consistent — an
// index can never be paired with a model it was not built from, and a
// cache can never serve another generation's answers. An mmap-backed
// generation needs no explicit teardown on retirement: the Factors32 pins
// its mapping, and a finalizer releases the pages once the last
// request-held snapshot (or exact view reading its rows) is gone (see
// store.MappedModel).
type liveState struct {
	params mf.Params
	// base is the read-only parameter set under params. With streaming
	// feedback enabled, params is an *mf.Overlay wrapping base (online
	// user-factor updates land in the overlay); otherwise params == base.
	base    mf.Params
	overlay *mf.Overlay // nil when feedback is disabled
	mode    retrieval.Mode
	// index answers every ranking: an IVF index in IVF mode, the
	// single-cell exact view over base's own item rows in exact mode.
	index *retrieval.Index
	cache *resultCache
}

// DefaultCacheSize bounds the per-generation top-K result cache.
const DefaultCacheSize = 4096

// DefaultMaxBatch bounds entries per /recommend/batch request.
const DefaultMaxBatch = 256

// Server serves recommendations from a trained model. train supplies the
// observed-item exclusions for known users and must match the model's
// dimensions. Configure the exported fields before calling Handler.
type Server struct {
	live  atomic.Pointer[liveState]
	train *dataset.Dataset
	// FoldInReg is the ridge strength for cold-start fold-in.
	FoldInReg float64
	// MaxK caps the k query parameter.
	MaxK int
	// MaxHistory caps the distinct items of a cold-start history (after
	// dedupe); larger requests are rejected with 400 (an unbounded list is
	// a trivial CPU/memory DoS on the fold-in path).
	MaxHistory int
	// MaxBatch caps entries per /recommend/batch request.
	MaxBatch int
	// MaxInFlight bounds concurrently handled recommendation requests;
	// excess load is shed with 503 + Retry-After. <= 0 disables shedding.
	MaxInFlight int
	// RequestTimeout is the per-request context deadline. <= 0 disables it.
	RequestTimeout time.Duration

	// cacheSize is the top-K cache capacity applied when a liveState is
	// built; change it through SetCacheSize, which also rebuilds the
	// current generation's cache.
	cacheSize atomic.Int64
	// retr is the retrieval strategy applied whenever a liveState is
	// built; change it through SetRetrieval.
	retr atomic.Pointer[retrievalSettings]
	// swapMu serializes liveState rebuilds (SwapModel, SetCacheSize,
	// SetRetrieval). Readers stay lock-free; without this, two concurrent
	// rebuilds could interleave their load-build-store sequences and
	// publish a state derived from a model that was just swapped out.
	swapMu sync.Mutex

	ready       atomic.Bool
	storeMapped atomic.Bool   // ReloadFromFile pages v3 files in via mmap
	shedSem     chan struct{} // the live shed semaphore (test hook)
	adminReload func() error  // optional /admin/reload action (EnableAdminReload)
	// feedback is the optional streaming-ingest sink. Atomic because
	// EnableFeedback supports late wiring: request goroutines may already
	// be serving when the sink is attached, and they read it lock-free
	// (positivesFor, handleFeedback, handleHealth). Read via feedbackSink.
	feedback       atomic.Pointer[FeedbackSink]
	jitterMu       sync.Mutex
	jitter         *mathx.RNG    // Retry-After jitter; RNG is not concurrency-safe
	generation     atomic.Uint64 // model swaps since construction
	log            *slog.Logger
	reg            *obs.Registry
	httpm          *obs.HTTPMetrics
	tracer         *trace.Tracer
	traceOff       atomic.Bool
	vitals         *obs.RuntimeSampler
	encodeErrors   *obs.Counter
	panics         *obs.Counter
	sheds          *obs.Counter
	reloadOK       *obs.Counter
	reloadFail     *obs.Counter
	reloadRejected *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	nonfinite      *obs.Counter
	onlineRejected *obs.Counter // registered by EnableFeedback
	started        time.Time
}

// New validates the pair and returns a Server with its own metrics
// registry and a no-op logger (install a real one with SetLogger).
func New(model *mf.Model, train *dataset.Dataset) (*Server, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	return NewFromParams(model, train)
}

// NewFromParams is New for any parameter representation — in particular a
// float32 set paged in by store.LoadMapped (cmd/clapf-serve -store-mmap).
func NewFromParams(model mf.Params, train *dataset.Dataset) (*Server, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if train == nil {
		return nil, fmt.Errorf("serve: nil training dataset")
	}
	if err := validateParams(model, train); err != nil {
		return nil, err
	}
	s := &Server{
		train:          train,
		FoldInReg:      0.1,
		MaxK:           100,
		MaxHistory:     1024,
		MaxBatch:       DefaultMaxBatch,
		MaxInFlight:    256,
		RequestTimeout: 10 * time.Second,
		log:            obs.NopLogger(),
		reg:            obs.NewRegistry(),
		started:        time.Now(),
	}
	// Seeded from the clock: Retry-After jitter must differ across
	// processes or a fleet's shed clients re-synchronize anyway.
	s.jitter = mathx.NewRNG(uint64(s.started.UnixNano()))
	s.cacheSize.Store(DefaultCacheSize)
	s.retr.Store(&retrievalSettings{})
	if err := s.install(model, KeepFoldedSeq); err != nil {
		return nil, err
	}
	s.ready.Store(true)
	s.httpm = obs.NewHTTPMetrics(s.reg, "clapf_")
	s.tracer = trace.New(s.reg, "clapf_", trace.Config{SampleRate: 0.01})
	s.vitals = obs.NewRuntimeSampler()
	s.vitals.Register(s.reg, "clapf_")
	s.encodeErrors = s.reg.NewCounter("clapf_encode_errors_total",
		"JSON response bodies that failed to encode after the header was written.")
	s.panics = s.reg.NewCounter("clapf_panics_total",
		"Handler panics recovered into 500 responses.")
	s.sheds = s.reg.NewCounter("clapf_load_shed_total",
		"Requests shed with 503 because the in-flight cap was reached.")
	reloads := s.reg.NewCounterVec("clapf_model_reloads_total",
		"Hot model reload attempts by result.", "result")
	s.reloadOK = reloads.With("ok")
	s.reloadFail = reloads.With("error")
	s.reloadRejected = s.reg.NewCounter("clapf_model_reload_rejected_total",
		"Candidate models refused at swap time (shape mismatch or non-finite parameters); the previous generation keeps serving.")
	s.cacheHits = s.reg.NewCounter("clapf_cache_hits_total",
		"Top-K recommendation requests answered from the result cache.")
	s.cacheMisses = s.reg.NewCounter("clapf_cache_misses_total",
		"Cacheable top-K requests that had to be scored.")
	s.cacheEvictions = s.reg.NewCounter("clapf_cache_evictions_total",
		"Result-cache entries evicted to stay within the capacity bound.")
	s.nonfinite = s.reg.NewCounter("clapf_nonfinite_scores_total",
		"Candidate scores dropped from rankings for being NaN or ±Inf — any nonzero value means the served model is damaged.")
	s.reg.NewGaugeFunc("clapf_cache_entries",
		"Entries currently in the live generation's top-K result cache.",
		func() float64 { return float64(s.live.Load().cache.size()) })
	s.reg.NewGaugeFunc("clapf_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.reg.NewGaugeFunc("clapf_model_users", "Users in the served model.",
		func() float64 { return float64(s.Params().NumUsers()) })
	s.reg.NewGaugeFunc("clapf_model_items", "Items in the served model.",
		func() float64 { return float64(s.Params().NumItems()) })
	s.reg.NewGaugeFunc("clapf_model_dim", "Latent dimensionality of the served model.",
		func() float64 { return float64(s.Params().Dim()) })
	s.reg.NewGaugeFunc("clapf_model_param_bytes",
		"Bytes of factor parameters in the served model (float32 serving halves this).",
		func() float64 { return float64(s.Params().ParamBytes()) })
	s.reg.NewGaugeFunc("clapf_model_generation",
		"Successful model swaps since the server started.",
		func() float64 { return float64(s.generation.Load()) })
	s.reg.NewGaugeFunc("clapf_retrieval_ivf",
		"1 while approximate IVF retrieval is live, 0 for exact scoring.",
		func() float64 {
			if s.live.Load().mode == retrieval.ModeIVF {
				return 1
			}
			return 0
		})
	s.reg.NewGaugeFunc("clapf_ivf_cells",
		"Inverted-list cells in the live IVF index (0 in exact mode).",
		func() float64 {
			if st := s.live.Load(); st.mode == retrieval.ModeIVF {
				return float64(st.index.NLists())
			}
			return 0
		})
	s.reg.NewGaugeFunc("clapf_ready",
		"1 while the server accepts traffic, 0 while draining.",
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	return s, nil
}

// validateParams checks a candidate parameter set against the exclusion
// dataset — the gate every swap must pass so a mismatched file can never
// go live. Besides the shape check it scans for non-finite parameters: a
// model poisoned by divergent training loads and checksums fine (NaN is a
// valid float bit pattern), but every score touching a poisoned row would
// be dropped by the rank layer, silently degrading results. Refusing the
// swap keeps the previous healthy generation serving. For float32 sets
// the scan also catches export-time overflow (out-of-range float64 values
// quantize to ±Inf).
func validateParams(m mf.Params, train *dataset.Dataset) error {
	if m.NumUsers() != train.NumUsers() || m.NumItems() != train.NumItems() {
		return fmt.Errorf("serve: model is %d×%d but dataset is %d×%d",
			m.NumUsers(), m.NumItems(), train.NumUsers(), train.NumItems())
	}
	if u, v, b := m.CountNonFinite(); u+v+b > 0 {
		return fmt.Errorf("serve: model carries %d non-finite parameters (%d user, %d item, %d bias)",
			u+v+b, u, v, b)
	}
	return nil
}

// SetLogger installs the structured logger used for serve-path warnings
// (encode failures and the like). nil restores the no-op logger.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.NopLogger()
	}
	s.log = l
	s.tracer.SetLogger(l)
}

// Tracer exposes the server's request tracer so callers can tune
// sampling (SetSampleRate, SetSlowThreshold) or read the flight
// recorder out-of-band.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// SetTracing enables or disables request tracing; Handler must be
// rebuilt for a change to take effect. With tracing off, requests carry
// no trace context: stage spans degrade to a nil-check and the stage
// histogram and flight recorder go quiet. The bench harness uses this
// for its traced-vs-untraced comparison.
func (s *Server) SetTracing(on bool) { s.traceOff.Store(!on) }

// RuntimeVitals returns the most recent runtime sample (resampled when
// older than a second) — the /healthz source of truth.
func (s *Server) RuntimeVitals() obs.RuntimeVitals { return s.vitals.Latest(time.Second) }

// StartRuntimeSampler launches the background runtime-vitals loop so
// /healthz and the clapf_goroutines/heap/gc gauges stay fresh even with
// no scrape traffic. Returns a stop function; without this call the
// sampler still refreshes lazily on access.
func (s *Server) StartRuntimeSampler(interval time.Duration) (stop func()) {
	s.vitals.Start(interval)
	return s.vitals.Stop
}

// Registry exposes the server's metrics registry so callers can add
// their own series or scrape it out-of-band.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Params returns the currently served parameter set.
func (s *Server) Params() mf.Params { return s.live.Load().params }

// Model returns the currently served model when the live parameter set is
// a float64 *mf.Model, and nil when the server is serving float32 factors
// (NewFromParams/SwapParams with an mf.Factors32). With feedback enabled
// the online-update overlay is transparent: this returns the base model
// under it. Callers that only need dimensions or scores should use Params.
func (s *Server) Model() *mf.Model {
	m, _ := s.live.Load().base.(*mf.Model)
	return m
}

// BaseParams returns the read-only parameter set under the live state —
// identical to Params unless streaming feedback has wrapped it in an
// online-update overlay. Fold-in solves on the ingest path run against it
// so they see exactly the factors a promotion export will bake.
func (s *Server) BaseParams() mf.Params { return s.live.Load().base }

// Generation returns how many successful model swaps have happened.
func (s *Server) Generation() uint64 { return s.generation.Load() }

// CacheSize returns the top-K result cache capacity (0 = disabled).
func (s *Server) CacheSize() int { return int(s.cacheSize.Load()) }

// SetCacheSize resizes the top-K result cache and immediately installs a
// fresh, empty cache of the new size for the current model; n <= 0
// disables caching. Existing entries are dropped, never migrated. The
// model, retrieval mode, and index carry over unchanged.
func (s *Server) SetCacheSize(n int) {
	if n < 0 {
		n = 0
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.cacheSize.Store(int64(n))
	st := s.live.Load()
	s.live.Store(&liveState{
		params: st.params, base: st.base, overlay: st.overlay,
		mode: st.mode, index: st.index,
		cache: newResultCache(n),
	})
}

// retrievalSettings is the serving-wide retrieval strategy applied
// whenever a liveState is built.
type retrievalSettings struct {
	mode retrieval.Mode
	cfg  retrieval.Config
}

// Retrieval returns the retrieval mode currently being served.
func (s *Server) Retrieval() retrieval.Mode { return s.live.Load().mode }

// SetRetrieval switches the serving-wide retrieval strategy and rebuilds
// the current generation's liveState under it — in IVF mode that means
// constructing the index for the live model right here, so by the time
// this returns every new request is answered under the new strategy. On
// build failure nothing changes: the old settings and state keep serving.
// Subsequent model swaps rebuild the index for each new model
// automatically.
func (s *Server) SetRetrieval(mode retrieval.Mode, cfg retrieval.Config) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.retr.Load()
	s.retr.Store(&retrievalSettings{mode: mode, cfg: cfg})
	if err := s.install(s.live.Load().base, KeepFoldedSeq); err != nil {
		s.retr.Store(old)
		return err
	}
	return nil
}

// install builds and publishes the liveState for base parameter set m:
// the online-update overlay when feedback is enabled, the retrieval index
// (an IVF build, or the exact view over m's rows), plus an empty result
// cache.
// Publishing the bundle through one pointer store is what makes cache and
// index invalidation atomic with the model swap. Callers must hold swapMu
// (or, in New, be the only goroutine that can see the server).
//
// folded is the feedback watermark m incorporates (KeepFoldedSeq when the
// caller doesn't know — retrieval/cache rebuilds, non-promotion swaps).
// With a feedback sink attached, the whole build-and-publish runs under
// the sink's lock: the sink rebuilds the overlay from events beyond the
// watermark, and because ingest applies updates under the same lock, an
// event is either folded into the overlay being built or applied after
// the new state is published — never dropped in between.
func (s *Server) install(m mf.Params, folded uint64) error {
	sink := s.feedbackSink()
	if sink != nil {
		sink.Lock()
		defer sink.Unlock()
	}
	st := &liveState{
		params: m,
		base:   m,
		mode:   s.retr.Load().mode,
		cache:  newResultCache(int(s.cacheSize.Load())),
	}
	if sink != nil {
		ov, err := sink.RebuildOverlay(m, folded)
		if err != nil {
			return fmt.Errorf("serve: rebuilding online-update overlay: %w", err)
		}
		st.overlay = ov
		st.params = ov
	}
	// Both indexes read item rows from the base: the overlay only ever
	// replaces user rows.
	var err error
	if st.mode == retrieval.ModeIVF {
		if st.index, err = retrieval.BuildIVF(m, s.retr.Load().cfg); err != nil {
			return fmt.Errorf("serve: building IVF index: %w", err)
		}
	} else if st.index, err = retrieval.ExactView(m); err != nil {
		return fmt.Errorf("serve: building exact view: %w", err)
	}
	s.live.Store(st)
	return nil
}

// SetReady flips the /readyz signal; cmd/clapf-serve marks the server
// not-ready at the start of a drain so load balancers stop routing to it
// while in-flight requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SwapModel atomically replaces the served model after validating it
// against the exclusion dataset. On error the old model keeps serving.
// The swap installs a fresh liveState — model, engine, retrieval index
// (rebuilt for the new model when IVF mode is on), and an empty result
// cache — in one pointer store, so no request can ever serve a previous
// generation's cached top-K, or probe a previous generation's index,
// under the new model. A rejected candidate (shape mismatch, non-finite
// parameters, index build failure) leaves model, index, and generation
// untouched.
func (s *Server) SwapModel(m *mf.Model) error {
	if m == nil {
		return fmt.Errorf("serve: nil model")
	}
	return s.SwapParams(m)
}

// SwapParams is SwapModel for any parameter representation — the reload
// path a float32 (possibly mmap-backed) generation comes in through. The
// outgoing generation needs no teardown: once the last in-flight request
// drops its liveState snapshot, an mmap-backed parameter set is unmapped
// by its finalizer.
func (s *Server) SwapParams(m mf.Params) error {
	return s.swapParams(m, KeepFoldedSeq, 0, false)
}

// KeepFoldedSeq passed as a folded watermark means "unknown — keep the
// feedback sink's current watermark". Swaps that do not come from a
// promotion or a watermarked file use it.
const KeepFoldedSeq = ^uint64(0)

// ErrGenerationFenced is returned by SwapParamsFenced when another swap
// won the race: the candidate was exported against a generation that is
// no longer live, so promoting it could silently roll the model back.
var ErrGenerationFenced = fmt.Errorf("serve: generation changed since export; promotion fenced")

// SwapParamsAt is SwapParams for a candidate that incorporates feedback
// events up to WAL sequence number folded (a promotion export or a model
// file with a FeedbackSeq watermark). The feedback overlay is rebuilt to
// carry only events beyond the watermark.
func (s *Server) SwapParamsAt(m mf.Params, folded uint64) error {
	return s.swapParams(m, folded, 0, false)
}

// SwapParamsFenced is SwapParamsAt guarded by generation fencing: the
// swap proceeds only if the server's generation still equals expectGen —
// the generation the caller exported against. The check runs under the
// swap lock, so a SIGHUP reload racing a promotion cannot interleave.
func (s *Server) SwapParamsFenced(m mf.Params, folded, expectGen uint64) error {
	return s.swapParams(m, folded, expectGen, true)
}

func (s *Server) swapParams(m mf.Params, folded, expectGen uint64, fence bool) error {
	if m == nil {
		return fmt.Errorf("serve: nil model")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if fence && s.generation.Load() != expectGen {
		return ErrGenerationFenced
	}
	if err := validateParams(m, s.train); err != nil {
		s.reloadRejected.Inc()
		return err
	}
	if err := s.install(m, folded); err != nil {
		s.reloadRejected.Inc()
		return err
	}
	s.generation.Add(1)
	return nil
}

// SetStoreMapped selects how ReloadFromFile reads model files: false (the
// default) parses them into a float64 model; true maps v3 files with
// store.LoadMapped and serves the float32 factors from the page cache
// (cmd/clapf-serve -store-mmap).
func (s *Server) SetStoreMapped(on bool) { s.storeMapped.Store(on) }

// ReloadFromFile hot-reloads the model from path: the file is read and
// checksum-verified, its dimensions are validated against the dataset,
// and only then does the pointer swap — a torn, corrupt, or mismatched
// file leaves the old model serving and counts as a failed reload. In
// mapped mode (SetStoreMapped) the factor section is paged in lazily, but
// its checksum is still verified up front: a reload must never publish
// bytes it has not vouched for.
func (s *Server) ReloadFromFile(path string) error {
	var err error
	if s.storeMapped.Load() {
		var mm *store.MappedModel
		if mm, err = store.LoadMapped(path); err == nil {
			if err = mm.Verify(); err == nil {
				err = s.SwapParams(mm.Factors())
			}
			if err != nil {
				mm.Close()
			}
		}
	} else {
		var m *mf.Model
		var meta *store.Meta
		if m, meta, err = store.LoadFileWithMeta(path); err == nil {
			// The file's FeedbackSeq watermark (0 for pre-feedback files)
			// tells the overlay rebuild which WAL events the user factors
			// already incorporate.
			folded := uint64(0)
			if meta != nil {
				folded = meta.FeedbackSeq
			}
			err = s.SwapParamsAt(m, folded)
		}
	}
	if err != nil {
		s.reloadFail.Inc()
		s.log.Error("model reload failed; keeping current model", "path", path, "err", err)
		return err
	}
	s.reloadOK.Inc()
	s.log.Info("model reloaded", "path", path, "generation", s.generation.Load())
	return nil
}

// retryAfterSeconds draws the jittered Retry-After value (1–3s) sent
// with shed 503s, so clients that all failed at the same instant do not
// all come back at the same instant.
func (s *Server) retryAfterSeconds() int {
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	return 1 + s.jitter.Intn(3)
}

// EnableAdminReload mounts POST /admin/reload on the next Handler()
// build, running fn (typically a closure over ReloadFromFile with the
// model path) and reporting the result. The endpoint is how a router
// drives rolling reloads over HTTP instead of per-process SIGHUPs; it is
// exempt from shedding — an operator healing an overloaded fleet must
// not be shed by it — and cmd/clapf-serve keeps it opt-in (-admin-reload)
// because an unauthenticated reload trigger does not belong on an
// internet-facing port. nil disables the endpoint again.
func (s *Server) EnableAdminReload(fn func() error) { s.adminReload = fn }

func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if err := s.adminReload(); err != nil {
		s.httpError(r.Context(), w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}{Status: "reloaded", Generation: s.generation.Load()})
}

// normalizeMetricPath keeps the metric path label's cardinality bounded:
// routed endpoints keep their path, everything else collapses.
func normalizeMetricPath(p string) string {
	switch p {
	case "/healthz", "/readyz", "/recommend", "/recommend/batch", "/similar", "/feedback", "/metrics", "/debug/traces", "/admin/reload":
		return p
	}
	return "other"
}

// Handler returns the routed HTTP handler wrapped in the hardening,
// tracing, and metrics middleware: metrics(trace(recover(shed(timeout(
// mux))))), so panics and shed requests are visible both in the request
// metrics and as errored traces, and the shed check itself is a traced
// stage.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /recommend", s.handleRecommend)
	mux.HandleFunc("POST /recommend/batch", s.handleRecommendBatch)
	mux.HandleFunc("GET /similar", s.handleSimilar)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET /debug/traces", s.tracer.Handler())
	if s.adminReload != nil {
		mux.HandleFunc("POST /admin/reload", s.handleAdminReload)
	}
	// Mounted unconditionally and gated at request time, so enabling
	// feedback after Handler() has been built (tests, late wiring) still
	// serves the route.
	mux.HandleFunc("POST /feedback", s.handleFeedback)
	var h http.Handler = mux
	h = s.timeoutMiddleware(h)
	h = s.shedMiddleware(h)
	h = s.recoverMiddleware(h)
	if !s.traceOff.Load() {
		h = s.tracer.Middleware(normalizeMetricPath, h)
	}
	return s.httpm.Middleware(normalizeMetricPath, h)
}

// Item is one scored item in a JSON response.
type Item struct {
	Item  int32   `json:"item"`
	Score float64 `json:"score"`
}

// RecommendResponse is the /recommend payload.
type RecommendResponse struct {
	User  *int32 `json:"user,omitempty"`
	Items []Item `json:"items"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status string `json:"status"`
	Users  int    `json:"users"`
	Items  int    `json:"items"`
	Dim    int    `json:"dim"`
	// ModelGeneration counts successful hot reloads since startup.
	ModelGeneration uint64 `json:"model_generation"`
	// Retrieval names the live retrieval strategy ("exact" or "ivf").
	Retrieval string `json:"retrieval"`
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RequestsTotal counts requests completed before this one, across
	// all endpoints and status codes.
	RequestsTotal uint64 `json:"requests_total"`
	// Runtime carries the Go runtime vitals from the shared sampler —
	// goroutine count, live heap bytes, and the worst recent GC pause —
	// so a probe shows scheduler and memory pressure without a scrape.
	Runtime obs.RuntimeVitals `json:"runtime"`
	// Feedback carries the streaming-ingest pipeline's state when
	// EnableFeedback is active.
	Feedback *FeedbackStats `json:"feedback,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.live.Load()
	m := st.params
	resp := HealthResponse{
		Status:          "ok",
		Users:           m.NumUsers(),
		Items:           m.NumItems(),
		Dim:             m.Dim(),
		ModelGeneration: s.generation.Load(),
		Retrieval:       st.mode.String(),
		UptimeSeconds:   time.Since(s.started).Seconds(),
		RequestsTotal:   s.httpm.TotalRequests(),
		Runtime:         s.RuntimeVitals(),
	}
	if sink := s.feedbackSink(); sink != nil {
		stats := sink.Stats()
		resp.Feedback = &stats
	}
	s.writeJSON(r.Context(), w, http.StatusOK, resp)
}

// handleReady is the routing signal, distinct from liveness: a draining
// process is still alive (healthz 200) but should get no new traffic
// (readyz 503).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.writeJSON(r.Context(), w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	k, err := s.parseK(r)
	if err != nil {
		s.httpError(ctx, w, http.StatusBadRequest, err)
		return
	}

	userParam := r.URL.Query().Get("user")
	itemsParam := r.URL.Query().Get("items")
	switch {
	case userParam != "" && itemsParam != "":
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("pass either user or items, not both"))
	case userParam != "":
		s.recommendKnown(ctx, w, userParam, k)
	case itemsParam != "":
		s.recommendColdStart(ctx, w, itemsParam, k)
	default:
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("missing user or items parameter"))
	}
}

func (s *Server) recommendKnown(ctx context.Context, w http.ResponseWriter, userParam string, k int) {
	st := s.live.Load()
	u64, err := strconv.ParseInt(userParam, 10, 32)
	if err != nil || u64 < 0 || int(u64) >= st.params.NumUsers() {
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("invalid user %q", userParam))
		return
	}
	u := int32(u64)
	items := s.topKForUser(ctx, st, u, k)
	s.writeJSON(ctx, w, http.StatusOK, RecommendResponse{User: &u, Items: items})
}

// topKForUser answers a known-user top-K from st's cache when possible,
// scoring and filling the cache otherwise. All counters (hits, misses,
// evictions, non-finite drops) are maintained here so the single and batch
// paths report identically. Both modes run one path — user vector, cell
// probe, then the index's fused score/exclude/select sweep — and differ
// only in stage attribution. Exact mode: "cache" (lookup, and the fill put
// on a miss), "merge" (the exclusion list), and "score" (the full-catalog
// sweep over the exact view's single cell, which needs no probe stage).
// IVF mode: "cache", "probe" (centroid scan and cell selection), then
// "score" (the pruned sweep, exclusion lookup included).
//
// A miss reads the user's invalidation stamp before scoring, and the fill
// is refused if an online update invalidated the user meanwhile: the list
// was computed from factors and an exclusion set that are already stale.
func (s *Server) topKForUser(ctx context.Context, st *liveState, u int32, k int) []Item {
	key := cacheKey{user: u, k: k, mode: st.mode}
	sp := trace.StartSpanNoCtx(ctx, "cache")
	items, ok := st.cache.get(key)
	sp.End()
	if ok {
		s.cacheHits.Inc()
		return items
	}
	stamp := st.cache.stamp(u)
	if st.cache != nil {
		s.cacheMisses.Inc()
	}
	uf := st.params.UserVector(u, nil)
	var top []rank.Entry
	var dropped int
	if st.mode == retrieval.ModeIVF {
		cells := probeCells(ctx, st, uf)
		sp = trace.StartSpanNoCtx(ctx, "score")
		top, dropped = st.index.SearchCells(uf, cells, k, s.positivesFor(u))
		sp.End()
	} else {
		sp = trace.StartSpanNoCtx(ctx, "merge")
		exclude := s.positivesFor(u)
		sp.End()
		sp = trace.StartSpanNoCtx(ctx, "score")
		top, dropped = st.index.SearchCells(uf, probeCells(ctx, st, uf), k, exclude)
		sp.End()
	}
	items = s.countDropped(top, dropped)
	sp = trace.StartSpanNoCtx(ctx, "cache")
	s.cacheEvictions.Add(uint64(st.cache.put(key, items, stamp)))
	sp.End()
	return items
}

// positivesFor returns user u's exclusion set: the training positives,
// extended with any items ingested through /feedback. Without a feedback
// sink — or for users with no ingested events — this is the dataset's own
// slice, shared and allocation-free; with extras it is a fresh sorted
// merge. Every known-user ranking excludes through it, so an ingested item
// stops being recommended back to its user the moment its append is
// acknowledged.
func (s *Server) positivesFor(u int32) []int32 {
	pos := s.train.Positives(u)
	if sink := s.feedbackSink(); sink != nil {
		if extra := sink.ExtraPositives(u); len(extra) > 0 {
			pos = dataset.MergeSorted(pos, extra)
		}
	}
	return pos
}

// countDropped is the one funnel every serve-path ranking goes through:
// the index sweep drops non-finite scores, and this counts and logs them.
// A nonzero clapf_nonfinite_scores_total means the live model carries
// NaN/Inf parameters (diverged run, bit-flipped file) — worth an alert,
// not a silent mis-ranking.
func (s *Server) countDropped(top []rank.Entry, dropped int) []Item {
	if dropped > 0 {
		s.nonfinite.Add(uint64(dropped))
		s.log.Warn("dropped non-finite scores from ranking",
			"dropped", dropped, "generation", s.generation.Load())
	}
	return toItems(top)
}

func (s *Server) recommendColdStart(ctx context.Context, w http.ResponseWriter, itemsParam string, k int) {
	st := s.live.Load()
	history, err := parseItemList(itemsParam, st.params.NumItems(), s.MaxHistory)
	if err != nil {
		s.httpError(ctx, w, http.StatusBadRequest, err)
		return
	}
	items, err := s.topKColdStart(ctx, st, history, k)
	if err != nil {
		s.httpError(ctx, w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(ctx, w, http.StatusOK, RecommendResponse{Items: items})
}

// topKColdStart folds a (deduped) history into user factors and ranks all
// items outside it through the same sweep as topKForUser. Cold-start
// results are never cached: the history is the key and its space is
// unbounded. Stages: "foldin" (ridge solve), "merge" (sorting the history
// into the sweep's exclusion list), "probe" in IVF mode only, and "score".
// The folded-in vector has the same shape as a trained user's factors, so
// the index probes it unchanged.
func (s *Server) topKColdStart(ctx context.Context, st *liveState, history []int32, k int) ([]Item, error) {
	sp := trace.StartSpanNoCtx(ctx, "foldin")
	uf, err := mf.FoldInUser(st.params, history, s.FoldInReg)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = trace.StartSpanNoCtx(ctx, "merge")
	exclude := slices.Clone(history)
	slices.Sort(exclude)
	sp.End()
	cells := probeCells(ctx, st, uf)
	sp = trace.StartSpanNoCtx(ctx, "score")
	defer sp.End()
	top, dropped := st.index.SearchCells(uf, cells, k, exclude)
	return s.countDropped(top, dropped), nil
}

// probeCells selects the index cells a query sweeps. In IVF mode that is
// the "probe" stage; the exact view's single cell is not worth a stage.
func probeCells(ctx context.Context, st *liveState, uf []float64) []int32 {
	if st.mode == retrieval.ModeIVF {
		sp := trace.StartSpanNoCtx(ctx, "probe")
		defer sp.End()
	}
	return st.index.ProbeCells(uf, 0)
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	m := s.Params()
	k, err := s.parseK(r)
	if err != nil {
		s.httpError(ctx, w, http.StatusBadRequest, err)
		return
	}
	itemParam := r.URL.Query().Get("item")
	i64, err := strconv.ParseInt(itemParam, 10, 32)
	if err != nil || i64 < 0 || int(i64) >= m.NumItems() {
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("invalid item %q", itemParam))
		return
	}
	sp := trace.StartSpanNoCtx(ctx, "score")
	sims, err := mf.SimilarItems(m, int32(i64), k)
	sp.End()
	if err != nil {
		s.httpError(ctx, w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(ctx, w, http.StatusOK, RecommendResponse{Items: toItems(sims)})
}

func (s *Server) parseK(r *http.Request) (int, error) {
	kParam := r.URL.Query().Get("k")
	if kParam == "" {
		return 10, nil
	}
	k, err := strconv.Atoi(kParam)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("invalid k %q", kParam)
	}
	if k > s.MaxK {
		k = s.MaxK
	}
	return k, nil
}

// parseItemList parses a comma-separated history into a deduped item list,
// then applies the length cap to the *unique* count. Capping before dedupe
// would reject legitimate histories padded with repeats (client-side logs
// often carry re-views) while the solve only ever sees each item once; the
// raw parse is linear in the input, which the HTTP layer already bounds.
func parseItemList(param string, numItems, maxItems int) ([]int32, error) {
	parts := strings.Split(param, ",")
	items, err := dedupeHistory(parts, numItems, maxItems)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("empty item list")
	}
	return items, nil
}

// dedupeHistory validates string-encoded item ids, drops duplicates, and
// enforces the unique-count cap (cap after dedupe; <= 0 disables it).
func dedupeHistory(parts []string, numItems, maxItems int) ([]int32, error) {
	items := make([]int32, 0, len(parts))
	seen := make(map[int32]bool, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("invalid item %q", p)
		}
		if v < 0 || int(v) >= numItems {
			return nil, fmt.Errorf("item %d out of range [0,%d)", v, numItems)
		}
		if seen[int32(v)] {
			continue
		}
		seen[int32(v)] = true
		items = append(items, int32(v))
		if maxItems > 0 && len(items) > maxItems {
			return nil, fmt.Errorf("history has over %d distinct items, limit %d", maxItems, maxItems)
		}
	}
	return items, nil
}

// dedupeIDs is dedupeHistory for already-decoded ids (the batch endpoint's
// JSON histories): validate range, drop duplicates, cap after dedupe.
func dedupeIDs(ids []int32, numItems, maxItems int) ([]int32, error) {
	items := make([]int32, 0, len(ids))
	seen := make(map[int32]bool, len(ids))
	for _, v := range ids {
		if v < 0 || int(v) >= numItems {
			return nil, fmt.Errorf("item %d out of range [0,%d)", v, numItems)
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		items = append(items, v)
		if maxItems > 0 && len(items) > maxItems {
			return nil, fmt.Errorf("history has over %d distinct items, limit %d", maxItems, maxItems)
		}
	}
	return items, nil
}

func toItems(es []rank.Entry) []Item {
	out := make([]Item, len(es))
	for i, e := range es {
		out[i] = Item{Item: e.Item, Score: e.Score}
	}
	return out
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) httpError(ctx context.Context, w http.ResponseWriter, code int, err error) {
	s.writeJSON(ctx, w, code, errorResponse{Error: err.Error()})
}

// writeJSON writes v with the given status under an "encode" trace
// stage. Encoding errors after the header is written cannot reach the
// client anymore, but they must not vanish either: they are logged and
// counted in clapf_encode_errors_total so a broken payload type shows up
// on a dashboard instead of nowhere.
func (s *Server) writeJSON(ctx context.Context, w http.ResponseWriter, code int, v any) {
	sp := trace.StartSpanNoCtx(ctx, "encode")
	defer sp.End()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeErrors.Inc()
		s.log.Error("response encode failed", "err", err, "status", code, "type", fmt.Sprintf("%T", v))
	}
}
