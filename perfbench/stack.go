package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"clapf/internal/cluster"
	"clapf/internal/dataset"
	"clapf/internal/feedback"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/retrieval"
	"clapf/internal/serve"
	"clapf/internal/store"
)

// shardNames are the routed workload's two shards, in ring order.
var shardNames = []string{"shard-a", "shard-b"}

// Stack is one running instance of the program as a serving workload sets
// it up: the serve.Servers (one, or two shards), the router in front of
// the shards, and the feedback pipeline. Front is the URL the load hits.
type Stack struct {
	Front   string
	Servers []*serve.Server
	Router  *cluster.Router
	Ing     *feedback.Ingestor
	WAL     *feedback.WAL
	Fsyncs  *obs.Histogram
	Train   *dataset.Dataset // the exclusion dataset the (first) server loaded

	closers []func()
}

// Close stops everything the stack started, newest first, and waits for
// the HTTP servers to return.
func (s *Stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// setupStack starts the program for a serving workload the way
// cmd/clapf-serve and cmd/clapf-router wire it, and returns once the front
// answers /readyz. With tr non-nil, handlers and the feedback sink are
// wrapped so the tracer sees their calls; the program itself is unchanged.
func setupStack(target string, in *ServingInputs, walDir string, tr *Tracer) (*Stack, error) {
	s := &Stack{}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	switch target {
	case "exact":
		mm, err := store.LoadMapped(in.F32Path)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, func() { mm.Close() })
		if err := mm.Verify(); err != nil {
			return nil, err
		}
		srv, err := s.newServer(mm.Factors(), in.TSVPath, retrieval.ModeExact)
		if err != nil {
			return nil, err
		}
		srv.SetStoreMapped(true)
		if err := s.addServer(srv, tr.wrap("handler", "", srv.Handler())); err != nil {
			return nil, err
		}
	case "routed":
		shards := make([]cluster.ShardConfig, len(shardNames))
		for i, name := range shardNames {
			m, err := store.LoadFile(in.F64Path)
			if err != nil {
				return nil, err
			}
			srv, err := s.newServer(m, in.TSVPath, retrieval.ModeIVF)
			if err != nil {
				return nil, err
			}
			if err := s.addServer(srv, tr.wrap("handler", name, srv.Handler())); err != nil {
				return nil, err
			}
			shards[i] = cluster.ShardConfig{Name: name, URL: s.Front, Retrieval: "ivf"}
		}
		train, err := readTSV(in.TSVPath)
		if err != nil {
			return nil, err
		}
		r, err := cluster.NewRouter(cluster.Config{Shards: shards, Train: train})
		if err != nil {
			return nil, err
		}
		s.Router = r
		s.closers = append(s.closers, r.StartProber())
		url, stop, err := listen(tr.wrap("router", "", r.Handler()))
		if err != nil {
			return nil, err
		}
		s.Front = url
		s.closers = append(s.closers, stop)
	case "feedback":
		m, meta, err := store.LoadFileWithMeta(in.F64Path)
		if err != nil {
			return nil, err
		}
		srv, err := s.newServer(m, in.TSVPath, retrieval.ModeIVF)
		if err != nil {
			return nil, err
		}
		s.Fsyncs = srv.Registry().NewHistogram("clapf_feedback_fsync_seconds",
			"Feedback WAL fsync latency (group commits).", obs.ExponentialBuckets(1e-5, 4, 10))
		wal, _, err := feedback.OpenWAL(walDir, walConfig(s.Fsyncs))
		if err != nil {
			return nil, err
		}
		s.WAL = wal
		s.closers = append(s.closers, func() { wal.Close() })
		ing := feedback.NewIngestor(wal, s.Train, feedback.Config{FoldInReg: srv.FoldInReg}, srv.Registry())
		var folded uint64
		if meta != nil {
			folded = meta.FeedbackSeq
		}
		ing.SetFolded(folded)
		if _, err := ing.Replay(); err != nil {
			return nil, err
		}
		ing.Bind(srv)
		s.Ing = ing
		if err := srv.EnableFeedback(tr.wrapSink(ing)); err != nil {
			return nil, err
		}
		if err := s.addServer(srv, tr.wrap("handler", "", srv.Handler())); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown serving target %q", target)
	}
	if err := awaitReady(s.Front); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// walConfig is clapf-serve's default feedback log: fsync before every ack.
func walConfig(fsyncs *obs.Histogram) feedback.WALConfig {
	return feedback.WALConfig{SyncEvery: 1, SyncInterval: 5 * time.Millisecond, FsyncSeconds: fsyncs}
}

// newServer reads the exclusion dataset and builds a server with
// clapf-serve's defaults and the given retrieval mode. The first dataset
// read becomes s.Train.
func (s *Stack) newServer(m mf.Params, tsvPath string, mode retrieval.Mode) (*serve.Server, error) {
	train, err := readTSV(tsvPath)
	if err != nil {
		return nil, err
	}
	if s.Train == nil {
		s.Train = train
	}
	srv, err := serve.NewFromParams(m, train)
	if err != nil {
		return nil, err
	}
	if err := srv.SetRetrieval(mode, retrieval.Config{}); err != nil {
		return nil, err
	}
	return srv, nil
}

// addServer serves h for srv on a loopback port and records it as the
// stack's front.
func (s *Stack) addServer(srv *serve.Server, h http.Handler) error {
	s.closers = append(s.closers, srv.StartRuntimeSampler(10*time.Second))
	url, stop, err := listen(h)
	if err != nil {
		return err
	}
	s.Servers = append(s.Servers, srv)
	s.Front = url
	s.closers = append(s.closers, stop)
	return nil
}

// listen serves h on a fresh loopback port with clapf-serve's timeouts.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		<-done
	}, nil
}

func awaitReady(front string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, front+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready", front)
		case <-time.After(5 * time.Millisecond):
		}
	}
}
