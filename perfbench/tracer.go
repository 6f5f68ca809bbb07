package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"clapf/internal/feedback"
	"clapf/internal/serve"
)

// Span is one timed call in a traced run. Spans of one request share Req;
// Parent names the span that caused this one within the request ("" for a
// root). Start and End are nanoseconds since the tracer started.
type Span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps the spans of a traced run in memory. All spans come from
// the benchmark's own code around calls into the program's public API:
// a wrapper around an http.Handler, a wrapper around the feedback sink,
// and the replayed layer calls. A nil *Tracer records nothing and wraps
// nothing, which is the untraced run.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

type ridKey struct{}

// reqID reads the request id the load generator put in the rid query
// parameter; the program ignores unknown parameters, and the router
// forwards the query string unchanged, so it reaches the shards too.
func reqID(r *http.Request) int64 {
	id, err := strconv.ParseInt(r.URL.Query().Get("rid"), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// wrap times every call of h.ServeHTTP as a span called name (note names
// the shard), child of the client-side "request" span for handlers that
// face the client and of "router" for shards behind the router.
func (t *Tracer) wrap(name, note string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	parent := "request"
	if note != "" {
		parent = "router"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := reqID(r)
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(Span{Req: rid, Name: name, Parent: parent, Note: note, Start: start, End: t.now()})
	})
}

// timedSink is the server's feedback sink with Ingest timed: every other
// method is the Ingestor's own.
type timedSink struct {
	*feedback.Ingestor
	t *Tracer
}

func (s timedSink) Ingest(ctx context.Context, user, item int32) (uint64, bool, error) {
	rid, _ := ctx.Value(ridKey{}).(int64)
	start := s.t.now()
	seq, applied, err := s.Ingestor.Ingest(ctx, user, item)
	s.t.add(Span{Req: rid, Name: "ingest", Parent: "handler", Start: start, End: s.t.now()})
	return seq, applied, err
}

func (t *Tracer) wrapSink(ing *feedback.Ingestor) serve.FeedbackSink {
	if t == nil {
		return ing
	}
	return timedSink{Ingestor: ing, t: t}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
