package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"clapf/internal/obs"
)

// endToEnd and perLayer list every metric the benchmark reports, with its
// unit. An untraced run reports exactly the end-to-end set and a traced
// run exactly the per-layer set; a metric that does not apply to the
// workload reads 0 and is marked n/a in the printed table.
var endToEnd = []MetricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"p90_ms", "ms"}, {"quality", "ratio"}, {"peak_heap_mb", "MB"},
}

var perLayer = []MetricDef{
	{"serve.handler_us", "us"}, {"serve.transport_us", "us"}, {"serve.encode_us", "us"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.alloc_bytes_per_req", "bytes"},
	{"serve.allocs_per_req", "count"}, {"runtime.gc_cpu_frac", "ratio"}, {"serve.shed_frac", "ratio"},
	{"score.scan_us", "us"}, {"score.batch_us_per_entry", "us"}, {"rank.topk_us", "us"},
	{"mf.foldin_us", "us"}, {"retrieval.probe_us", "us"}, {"retrieval.search_us", "us"},
	{"retrieval.build_s", "s"}, {"store.load_s", "s"},
	{"cluster.hop_us", "us"}, {"cluster.hedges_per_req", "count"}, {"cluster.hedge_win_ratio", "ratio"},
	{"cluster.retries_per_req", "count"}, {"cluster.degraded_frac", "ratio"},
	{"feedback.append_us", "us"}, {"feedback.ingest_us", "us"}, {"feedback.ack_p50_ms", "ms"},
	{"feedback.ack_p99_ms", "ms"}, {"feedback.events_per_fsync", "count"}, {"feedback.replay_s", "s"},
	{"feedback.promote_s", "s"},
	{"core.serial_steps_per_s", "1/s"}, {"core.parallel_speedup", "ratio"},
	{"eval.score_s", "s"}, {"eval.rank_s", "s"}, {"eval.metrics_s", "s"}, {"eval.users_per_s", "1/s"},
	{"eval.ndcg_at_5", "ratio"},
	{"unattributed_us", "us"}, {"unattributed_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
	{"trace.suspect_stages", "count"},
	{"datagen.generate_s", "s"}, {"gen.late_p99_ms", "ms"},
}

// MetricDef names a metric and its unit.
type MetricDef struct{ Name, Unit string }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report collects one run's results: the metrics of the run's set, the
// printed table (which also carries context figures outside the set) and
// any failed correctness check.
type Report struct {
	Traced    bool
	Attempted int
	Failed    int
	Problems  []string

	values map[string]float64
	counts map[string]int
	extra  []string // printed-only lines, in order
}

func newReport(traced bool) *Report {
	return &Report{Traced: traced, values: make(map[string]float64), counts: make(map[string]int)}
}

// set records metric name with the sample count it rests on (0 when it is
// not a sampled figure).
func (r *Report) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// note adds a context line to the printed table.
func (r *Report) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// timing records a latency summary as a printed line: median, the highest
// percentile with ten samples beyond it, and the sample count.
func (r *Report) timing(name string, xs []float64, unit string) {
	s := summarize(xs)
	if s.N == 0 {
		r.note("%-28s n/a", name)
		return
	}
	r.note("%-28s p50 %.4f %s  p%s %.4f %s  n=%d", name, s.P50, unit,
		strconv.FormatFloat(s.TailQ*100, 'f', -1, 64), s.Tail, unit, s.N)
}

func (r *Report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *Report) defs() []MetricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// Write prints the table and then, as the last line, the JSON result.
func (r *Report) Write(w io.Writer, workload string, seed uint64) error {
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", workload, seed, r.Traced)
	for _, line := range r.extra {
		fmt.Fprintln(w, "  "+line)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{Correct: len(r.Problems) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]Metric{}}
	for _, d := range r.defs() {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "  %-28s n/a\n", d.Name)
			v = 0
		} else {
			n := ""
			if c := r.counts[d.Name]; c > 0 {
				n = fmt.Sprintf("  n=%d", c)
			}
			fmt.Fprintf(w, "  %-28s %.6g %s%s\n", d.Name, v, d.Unit, n)
		}
		out.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	fmt.Fprintf(w, "  attempted %d failed %d fail_frac %.6g\n", r.Attempted, r.Failed, frac(r.Failed, r.Attempted))
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  CHECK FAILED: "+p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counter reads an unlabeled counter from a registry's exposition, the
// same text /metrics serves.
func counter(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err == nil {
				return f
			}
		}
	}
	return math.NaN()
}
