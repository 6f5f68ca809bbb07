package main

import (
	"math"
	"time"
)

// layerMetrics derives the per-layer serving metrics from the traced
// nominal phase's spans. Request rid = ridBase + i is nominal op i.
//
// Per request: the handler time is the serving process's ServeHTTP span
// (the shard's, behind the router: the first one to finish when a hedge
// fired); transport is the client-observed time minus the time of the
// handler facing the client; the router hop is the router's span minus the
// shard's. The replayed layer calls are the handler's stages; what the
// handler spent beyond their sum is unattributed. For a write the stages
// are the sink's Ingest (timed inside the server) and the encode.
//
// server holds the servers' own per-stage totals over the same phase;
// crossCheck compares them with the replayed stages.
func layerMetrics(rep *Report, spans []Span, nominal *Phase, ridBase int, routed bool, server map[string]stageSum) {
	type req struct {
		request, handler, router Span
		hasHandler               bool
		layers                   map[string]time.Duration
	}
	byReq := make(map[int64]*req)
	for _, s := range spans {
		i := int(s.Req) - ridBase
		if i < 0 || i >= len(nominal.Ops) {
			continue
		}
		q := byReq[s.Req]
		if q == nil {
			q = &req{layers: make(map[string]time.Duration)}
			byReq[s.Req] = q
		}
		switch {
		case s.Name == "request":
			q.request = s
		case s.Name == "router":
			q.router = s
		case s.Name == "handler":
			if !q.hasHandler || s.End < q.handler.End {
				q.handler, q.hasHandler = s, true
			}
		case s.Name == "ingest" || s.Parent == "replay":
			q.layers[s.Name] += s.dur()
		}
	}
	var handler, transport, hop, encode, scan, batch, topk, foldin, probe, search, appendT, ingest, unattr []float64
	var unattrSum, handlerSum float64
	replayed := make(map[string]stageSum)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for rid, q := range byReq {
		op := nominal.Ops[int(rid)-ridBase]
		if !q.hasHandler || q.request.End == 0 || nominal.Out[int(rid)-ridBase].failed() {
			continue
		}
		for name, d := range q.layers {
			// A write's merge, fold-in and append run inside the server's
			// ingest stage, not as stages of their own.
			if op.Kind != opWrite || name == "encode" || name == "ingest" {
				s := replayed[name]
				replayed[name] = stageSum{s.secs + d.Seconds(), s.n + 1}
			}
		}
		front := q.handler
		if routed {
			front = q.router
			hop = append(hop, us(q.router.dur()-q.handler.dur()))
		}
		handler = append(handler, us(q.handler.dur()))
		transport = append(transport, us(q.request.dur()-front.dur()))
		add := func(dst *[]float64, name string) {
			if d, ok := q.layers[name]; ok {
				*dst = append(*dst, us(d))
			}
		}
		add(&encode, "encode")
		add(&foldin, "foldin")
		_, ivf := q.layers["probe"]
		if ivf {
			add(&probe, "probe")
			add(&search, "score")
		}
		switch op.Kind {
		case opBatch:
			if d, ok := q.layers["score"]; ok {
				batch = append(batch, us(d)/float64(len(op.Batch)))
			}
		case opKnown, opCold:
			if !ivf {
				add(&scan, "score")
				add(&topk, "topk")
			}
		case opWrite:
			add(&appendT, "append")
			add(&ingest, "ingest")
		}
		var attributed time.Duration
		if op.Kind == opWrite {
			attributed = q.layers["ingest"] + q.layers["encode"]
		} else {
			for _, d := range q.layers {
				attributed += d
			}
		}
		u := us(q.handler.dur() - attributed)
		unattr = append(unattr, u)
		unattrSum += u
		handlerSum += us(q.handler.dur())
	}
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			rep.set(name, median(xs), len(xs))
			rep.timing(name, xs, "us")
		}
	}
	set("serve.handler_us", handler)
	set("serve.transport_us", transport)
	set("serve.encode_us", encode)
	set("score.scan_us", scan)
	set("score.batch_us_per_entry", batch)
	set("rank.topk_us", topk)
	set("mf.foldin_us", foldin)
	set("retrieval.probe_us", probe)
	set("retrieval.search_us", search)
	set("cluster.hop_us", hop)
	set("feedback.append_us", appendT)
	set("feedback.ingest_us", ingest)
	set("unattributed_us", unattr)
	if handlerSum > 0 {
		rep.set("unattributed_frac", unattrSum/handlerSum, len(unattr))
	}
	crossCheck(rep, replayed, server)
}

// crossCheck compares the mean of each replayed stage with the mean the
// servers recorded for the same stage over the same phase, and counts the
// stages whose means differ by more than a factor of two as suspect: the
// replay then does not cost what the handler's own call cost.
func crossCheck(rep *Report, replayed, server map[string]stageSum) {
	suspect := 0
	for _, name := range crossStages {
		r, s := replayed[name], server[name]
		if r.n == 0 && s.n == 0 {
			continue
		}
		ratio := math.NaN()
		if r.n > 0 && s.n > 0 {
			ratio = r.mean() / s.mean()
		}
		verdict := "ok"
		if !(ratio >= 0.5 && ratio <= 2) {
			verdict = "SUSPECT"
			suspect++
		}
		rep.note("stage %-7s replay mean %9.2f us n=%-6.0f server mean %9.2f us n=%-6.0f ratio %.3f %s",
			name, r.mean()*1e6, r.n, s.mean()*1e6, s.n, ratio, verdict)
	}
	rep.set("trace.suspect_stages", float64(suspect), len(crossStages))
}
