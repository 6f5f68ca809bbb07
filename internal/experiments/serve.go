package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/retrieval"
	"clapf/internal/score"
	"clapf/internal/serve"
)

// ServeBenchRow is one serving path's measured throughput and latency
// distribution. Requests counts HTTP round trips; Recs counts
// recommendation lists produced (for the batch path one request carries
// many). Latency percentiles are per HTTP request.
type ServeBenchRow struct {
	Path        string  `json:"path"`
	Requests    int     `json:"requests"`
	Recs        int     `json:"recommendations"`
	WallSeconds float64 `json:"wall_seconds"`
	RecsPerSec  float64 `json:"users_per_sec"`
	P50ms       float64 `json:"p50_ms"`
	P95ms       float64 `json:"p95_ms"`
	P99ms       float64 `json:"p99_ms"`
}

// ServeBench is the serve-path load report: the same recommendation work
// pushed through the single-request path, the batch endpoint, and the
// warmed result cache, through the full production handler chain.
type ServeBench struct {
	Dataset       string          `json:"dataset"`
	Users         int             `json:"users"`
	Items         int             `json:"items"`
	Dim           int             `json:"dim"`
	K             int             `json:"k"`
	BatchSize     int             `json:"batch_size"`
	Cores         int             `json:"cores"`
	Rows          []ServeBenchRow `json:"rows"`
	BatchSpeedup  float64         `json:"batch_speedup_vs_single"`
	CachedSpeedup float64         `json:"cached_speedup_vs_single"`
	F32           *F32Bench       `json:"f32,omitempty"`
}

// F32Bench compares the float32 serving representation against the
// float64 reference along the three axes the v3 store format trades on:
// kernel throughput, parameter footprint, and ranking quality.
//
// The kernel arms run the score.Engine blocked sweep over a synthetic
// KernelItems x KernelDim catalog sized to spill the cache hierarchy, in
// two regimes. The scan arm scores one user per sweep — the exact-mode
// cost of a single /recommend request, where the whole item matrix
// streams from memory and float32's halved traffic wins outright. The
// batch arm scores BatchUsers per sweep, where the blocked kernel already
// amortizes each tile across the batch and the two representations are
// compute-bound to rough parity; it is reported so the scan speedup can't
// be mistaken for a universal one.
//
// Quality is measured two ways on the serve model itself: Welch t-tests
// on matched per-user Prec@5/NDCG@5 samples (f64 vs its f32 quantization
// — parity means p stays far above 0.05), and recall@10 of an IVF index
// built over the f32 factors against exact f64 top-10.
type F32Bench struct {
	KernelItems int `json:"kernel_items"`
	KernelDim   int `json:"kernel_dim"`
	BatchUsers  int `json:"batch_users"`

	F64ScanUsersPerSec  float64 `json:"f64_scan_users_per_sec"`
	F32ScanUsersPerSec  float64 `json:"f32_scan_users_per_sec"`
	ScanSpeedup         float64 `json:"f32_scan_speedup"`
	F64BatchUsersPerSec float64 `json:"f64_batch_users_per_sec"`
	F32BatchUsersPerSec float64 `json:"f32_batch_users_per_sec"`
	BatchSpeedup        float64 `json:"f32_batch_speedup"`

	F64ParamBytes   int64   `json:"f64_param_bytes"`
	F32ParamBytes   int64   `json:"f32_param_bytes"`
	ParamBytesRatio float64 `json:"param_bytes_ratio"`

	ParitySamples int     `json:"parity_samples"`
	Prec5F64      float64 `json:"prec5_f64"`
	Prec5F32      float64 `json:"prec5_f32"`
	WelchPPrec5   float64 `json:"welch_p_prec5"`
	NDCG5F64      float64 `json:"ndcg5_f64"`
	NDCG5F32      float64 `json:"ndcg5_f32"`
	WelchPNDCG5   float64 `json:"welch_p_ndcg5"`

	IVFRecallUsers int     `json:"ivf_recall_users"`
	IVFRecall10    float64 `json:"f32_ivf_recall_at_10"`
}

// serveBenchK is the top-k size every benchmark request asks for.
const serveBenchK = 10

// RunServeBench measures recommendation serving throughput with an
// in-process load generator: a sequential keep-alive client drives the
// real serve.Handler() stack — mux, hardening middleware, JSON codec —
// over a loopback HTTP connection, so every request pays the transport
// cost a production caller pays. Three phases serve the same number of
// recommendation lists: one GET per user with the cache off, the batch
// endpoint with batchSize entries per POST, and single GETs against a
// warmed cache. The model is Gaussian-initialized rather than trained —
// serving cost does not depend on parameter values.
//
// kernelItems > 0 additionally runs the float32-vs-float64 comparison
// (see F32Bench) with a synthetic kernel catalog of that many items; 0
// skips it.
func RunServeBench(s Setup, requests, batchSize, kernelItems int) (*ServeBench, error) {
	if requests < 1 {
		return nil, fmt.Errorf("experiments: serve bench needs requests >= 1, got %d", requests)
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("experiments: serve bench needs batch size >= 1, got %d", batchSize)
	}
	profile := s.Profile.Scaled(s.Scale)
	world, err := datagen.Generate(profile, mathx.NewRNG(s.Seed))
	if err != nil {
		return nil, err
	}
	train := world.Data
	const dim = 16
	m := mf.MustNew(mf.Config{
		NumUsers: train.NumUsers(), NumItems: train.NumItems(),
		Dim: dim, UseBias: true, InitStd: 0.1,
	})
	m.InitGaussian(mathx.NewRNG(s.Seed+1), 0.1)
	srv, err := serve.New(m, train)
	if err != nil {
		return nil, err
	}
	if batchSize > srv.MaxBatch {
		srv.MaxBatch = batchSize
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	numUsers := train.NumUsers()

	out := &ServeBench{
		Dataset: s.Profile.Name, Users: numUsers, Items: train.NumItems(),
		Dim: dim, K: serveBenchK, BatchSize: batchSize, Cores: runtime.NumCPU(),
	}

	// Phase 1: the sequential single-request path, cache off so every
	// request pays the full score-and-rank cost.
	srv.SetCacheSize(0)
	single, err := driveSingle(client, ts.URL, numUsers, requests)
	if err != nil {
		return nil, err
	}
	single.Path = "single"
	out.Rows = append(out.Rows, single)

	// Phase 2: the same users through /recommend/batch, batchSize lists
	// per POST. Still uncached — the speedup here is amortized transport
	// and JSON overhead plus the entries' fan-out across cores.
	batch, err := driveBatch(client, ts.URL, numUsers, requests, batchSize)
	if err != nil {
		return nil, err
	}
	batch.Path = "batch"
	out.Rows = append(out.Rows, batch)

	// Phase 3: single requests against a warmed cache — every request is
	// a top-k lookup.
	srv.SetCacheSize(serve.DefaultCacheSize)
	if _, err := driveSingle(client, ts.URL, numUsers, numUsers); err != nil { // prime
		return nil, err
	}
	cached, err := driveSingle(client, ts.URL, numUsers, requests)
	if err != nil {
		return nil, err
	}
	cached.Path = "cached"
	out.Rows = append(out.Rows, cached)

	if single.RecsPerSec > 0 {
		out.BatchSpeedup = batch.RecsPerSec / single.RecsPerSec
		out.CachedSpeedup = cached.RecsPerSec / single.RecsPerSec
	}

	if kernelItems > 0 {
		f32b, err := runF32Bench(s.Seed, train, m, kernelItems)
		if err != nil {
			return nil, err
		}
		out.F32 = f32b
	}
	return out, nil
}

// f32KernelDim is the latent dimensionality of the synthetic kernel
// catalog — larger than the serve model's so a realistic share of each
// sweep is spent inside the dot kernel rather than loop overhead.
const f32KernelDim = 32

// f32BatchUsers is the batch arm's users per sweep.
const f32BatchUsers = 8

// runF32Bench measures the float32 serving representation against
// float64: engine throughput on a synthetic kernelItems-item catalog,
// parameter footprint, per-user metric parity on the serve model, and
// f32-IVF recall against f64-exact retrieval.
func runF32Bench(seed uint64, train *dataset.Dataset, m *mf.Model, kernelItems int) (*F32Bench, error) {
	out := &F32Bench{KernelItems: kernelItems, KernelDim: f32KernelDim, BatchUsers: f32BatchUsers}

	// Kernel arms: one Gaussian catalog, scored through the blocked
	// engine in both representations. The catalog is sized by the caller
	// to overflow cache, so the scan arm measures the memory-streaming
	// regime a single exact-mode request lives in.
	km := mf.MustNew(mf.Config{
		NumUsers: f32BatchUsers, NumItems: kernelItems,
		Dim: f32KernelDim, UseBias: true, InitStd: 0.1,
	})
	km.InitGaussian(mathx.NewRNG(seed+11), 0.1)
	kf := mf.QuantizeF32(km)
	out.F64ParamBytes = km.ParamBytes()
	out.F32ParamBytes = kf.ParamBytes()
	out.ParamBytesRatio = float64(kf.ParamBytes()) / float64(km.ParamBytes())

	batchUsers := make([]int32, f32BatchUsers)
	for i := range batchUsers {
		batchUsers[i] = int32(i)
	}
	rows := score.NewScoreRows(f32BatchUsers, kernelItems)
	sweep := func(p mf.Params, users []int32) float64 {
		eng := score.NewEngine(p)
		eng.ScoreUsers(users, rows) // warm
		const sweeps = 4
		t0 := time.Now()
		for i := 0; i < sweeps; i++ {
			eng.ScoreUsers(users, rows)
		}
		return float64(sweeps*len(users)) / time.Since(t0).Seconds()
	}
	out.F64ScanUsersPerSec = sweep(km, batchUsers[:1])
	out.F32ScanUsersPerSec = sweep(kf, batchUsers[:1])
	out.F64BatchUsersPerSec = sweep(km, batchUsers)
	out.F32BatchUsersPerSec = sweep(kf, batchUsers)
	if out.F64ScanUsersPerSec > 0 {
		out.ScanSpeedup = out.F32ScanUsersPerSec / out.F64ScanUsersPerSec
	}
	if out.F64BatchUsersPerSec > 0 {
		out.BatchSpeedup = out.F32BatchUsersPerSec / out.F64BatchUsersPerSec
	}

	// Metric parity: split the serve dataset, rank with the float64 model
	// and its quantization over identical splits, and Welch-test the
	// matched per-user samples. Parity means the test cannot tell the
	// representations apart — p nowhere near the 0.05 rejection line.
	f := mf.QuantizeF32(m)
	tr, te := dataset.Split(train, mathx.NewRNG(seed+12), 0.8)
	prec64, ndcg64 := eval.PerUserAtK(m, tr, te, 5)
	prec32, ndcg32 := eval.PerUserAtK(f, tr, te, 5)
	out.ParitySamples = len(prec64)
	out.Prec5F64, out.Prec5F32 = mathx.Mean(prec64), mathx.Mean(prec32)
	out.NDCG5F64, out.NDCG5F32 = mathx.Mean(ndcg64), mathx.Mean(ndcg32)
	if len(prec64) >= 2 && len(prec32) >= 2 {
		if res, err := mathx.WelchTTest(prec64, prec32); err == nil {
			out.WelchPPrec5 = res.P
		}
		if res, err := mathx.WelchTTest(ndcg64, ndcg32); err == nil {
			out.WelchPNDCG5 = res.P
		}
	}

	// Retrieval quality: an IVF index over the float32 factors answering
	// against float64 exact top-10, serve-style (train positives
	// excluded), at full probe width. Full width isolates the axis this
	// arm is gating — quantization reordering the ranking — because a
	// full probe over f32 factors is bit-identical to the f32 exact scan;
	// any recall below 1.0 is float32's doing. Pruning loss at the index
	// defaults is BENCH_retrieval.json's business, measured at a catalog
	// size where pruning is actually configured to operate.
	ix, err := retrieval.BuildIVF(f, retrieval.Config{Seed: seed + 13, NProbe: 1 << 30})
	if err != nil {
		return nil, err
	}
	eng := score.NewEngine(m)
	scores := make([]float64, m.NumItems())
	nUsers := m.NumUsers()
	const maxRecallUsers = 512
	if nUsers > maxRecallUsers {
		nUsers = maxRecallUsers
	}
	var recallSum float64
	for u := int32(0); int(u) < nUsers; u++ {
		eng.ScoreAll(u, scores)
		pos := train.Positives(u)
		idx := 0
		top, _ := rank.TopKDropped(scores, serveBenchK, func(i int32) bool {
			for idx < len(pos) && pos[idx] < i {
				idx++
			}
			return idx < len(pos) && pos[idx] == i
		})
		exact := make([]int32, len(top))
		for j, e := range top {
			exact[j] = e.Item
		}
		uf := m.UserFactors(u)
		approxTop, _ := ix.Search(uf, serveBenchK, 0, pos)
		approx := make([]int32, len(approxTop))
		for j, e := range approxTop {
			approx[j] = e.Item
		}
		recallSum += eval.RecallVsExact(approx, exact)
	}
	out.IVFRecallUsers = nUsers
	if nUsers > 0 {
		out.IVFRecall10 = recallSum / float64(nUsers)
	}
	return out, nil
}

// doTimed issues one request through the keep-alive client and returns
// the client-observed latency: status line to fully drained body, the
// cost a production caller pays per round trip.
func doTimed(client *http.Client, method, url string, body []byte) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("experiments: %s %s returned %d", method, url, resp.StatusCode)
	}
	return d, nil
}

// driveSingle times n GET /recommend requests cycling through the user
// base. Whether the run measures full score-and-rank cost or pure
// cache-hit serving depends on the server's cache state when called.
func driveSingle(client *http.Client, base string, numUsers, n int) (ServeBenchRow, error) {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/recommend?user=%d&k=%d", base, i%numUsers, serveBenchK)
	}
	for warm := 0; warm < 16; warm++ {
		if _, err := doTimed(client, http.MethodGet, urls[warm%n], nil); err != nil {
			return ServeBenchRow{}, err
		}
	}
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		d, err := doTimed(client, http.MethodGet, urls[i], nil)
		if err != nil {
			return ServeBenchRow{}, err
		}
		lat = append(lat, d)
	}
	return benchRow(lat, n), nil
}

// driveBatch times ceil(n/batchSize) POST /recommend/batch requests that
// together serve n recommendation lists. Bodies are marshaled up front:
// building the request is the client's cost, not the server's.
func driveBatch(client *http.Client, base string, numUsers, n, batchSize int) (ServeBenchRow, error) {
	url := base + "/recommend/batch"
	var bodies [][]byte
	for served := 0; served < n; {
		count := batchSize
		if n-served < count {
			count = n - served
		}
		req := serve.BatchRequest{Requests: make([]serve.BatchEntry, count)}
		for j := 0; j < count; j++ {
			u := int32((served + j) % numUsers)
			req.Requests[j] = serve.BatchEntry{User: &u, K: serveBenchK}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return ServeBenchRow{}, err
		}
		bodies = append(bodies, body)
		served += count
	}
	for warm := 0; warm < 2; warm++ {
		if _, err := doTimed(client, http.MethodPost, url, bodies[0]); err != nil {
			return ServeBenchRow{}, err
		}
	}
	lat := make([]time.Duration, 0, len(bodies))
	for _, body := range bodies {
		d, err := doTimed(client, http.MethodPost, url, body)
		if err != nil {
			return ServeBenchRow{}, err
		}
		lat = append(lat, d)
	}
	return benchRow(lat, n), nil
}

// benchRow folds per-request latencies into a report row serving recs
// recommendation lists. Wall-clock is the sum of handler time, so the
// in-process client's own bookkeeping does not dilute the measurement.
func benchRow(lat []time.Duration, recs int) ServeBenchRow {
	var wall time.Duration
	for _, d := range lat {
		wall += d
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	row := ServeBenchRow{
		Requests:    len(lat),
		Recs:        recs,
		WallSeconds: wall.Seconds(),
		P50ms:       percentileMs(lat, 50),
		P95ms:       percentileMs(lat, 95),
		P99ms:       percentileMs(lat, 99),
	}
	if wall > 0 {
		row.RecsPerSec = float64(recs) / wall.Seconds()
	}
	return row
}

// percentileMs returns the nearest-rank p-th percentile of sorted
// latencies, in milliseconds.
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / float64(time.Millisecond)
}

// RenderServeBench prints the serving report as an aligned text table.
func RenderServeBench(w io.Writer, b *ServeBench) error {
	if _, err := fmt.Fprintf(w,
		"serve bench on %s (%d users, %d items, dim %d, k=%d, batch=%d, %d cores)\n",
		b.Dataset, b.Users, b.Items, b.Dim, b.K, b.BatchSize, b.Cores); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-8s %9s %8s %12s %10s %10s %10s\n",
		"path", "requests", "recs", "recs/s", "p50(ms)", "p95(ms)", "p99(ms)"); err != nil {
		return err
	}
	for _, r := range b.Rows {
		if _, err := fmt.Fprintf(w, "%-8s %9d %8d %12.0f %10.4f %10.4f %10.4f\n",
			r.Path, r.Requests, r.Recs, r.RecsPerSec, r.P50ms, r.P95ms, r.P99ms); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "batch speedup vs single: %.2fx, cached: %.2fx\n",
		b.BatchSpeedup, b.CachedSpeedup); err != nil {
		return err
	}
	if f := b.F32; f != nil {
		if _, err := fmt.Fprintf(w,
			"float32 kernel (%d items, dim %d): scan %.0f vs %.0f users/s (%.2fx), batch[%d] %.0f vs %.0f users/s (%.2fx), param bytes %.2fx\n",
			f.KernelItems, f.KernelDim, f.F32ScanUsersPerSec, f.F64ScanUsersPerSec, f.ScanSpeedup,
			f.BatchUsers, f.F32BatchUsersPerSec, f.F64BatchUsersPerSec, f.BatchSpeedup,
			f.ParamBytesRatio); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w,
			"float32 parity (%d users): Prec@5 %.4f vs %.4f (Welch p=%.3f), NDCG@5 %.4f vs %.4f (p=%.3f), f32-IVF recall@10 %.4f over %d users\n",
			f.ParitySamples, f.Prec5F32, f.Prec5F64, f.WelchPPrec5,
			f.NDCG5F32, f.NDCG5F64, f.WelchPNDCG5, f.IVFRecall10, f.IVFRecallUsers); err != nil {
			return err
		}
	}
	return nil
}

// WriteServeBenchJSON emits the report as indented JSON (the
// BENCH_serve.json payload of scripts/bench.sh).
func WriteServeBenchJSON(w io.Writer, b *ServeBench) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
