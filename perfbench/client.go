package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime/metrics"
	"strconv"
	"time"
)

// Client sends scheduled ops to the front of a stack over loopback, on a
// connection pool no larger than the generator's worker count.
type Client struct {
	hc    *http.Client
	front string
	k     int
	trace bool // add rid=<request id> so traced handlers can join spans
}

func newClient(front string, conns, k int, trace bool) *Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, front: front, k: k, trace: trace}
}

func (c *Client) Close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// request builds the HTTP request for op.
func (c *Client) request(rid int, op *Op) (*http.Request, error) {
	var url, body []byte
	url = append(url, c.front...)
	sep := byte('?')
	switch op.Kind {
	case opKnown:
		url = append(url, "/recommend?user="...)
		url = strconv.AppendInt(url, int64(op.User), 10)
		url = append(url, "&k="...)
		url = strconv.AppendInt(url, int64(c.k), 10)
		sep = '&'
	case opCold:
		url = append(url, "/recommend?items="...)
		for i, it := range op.Items {
			if i > 0 {
				url = append(url, ',')
			}
			url = strconv.AppendInt(url, int64(it), 10)
		}
		url = append(url, "&k="...)
		url = strconv.AppendInt(url, int64(c.k), 10)
		sep = '&'
	case opBatch:
		url = append(url, "/recommend/batch"...)
		body = append(body, `{"requests":[`...)
		for i, u := range op.Batch {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"user":`...)
			body = strconv.AppendInt(body, int64(u), 10)
			body = append(body, `,"k":`...)
			body = strconv.AppendInt(body, int64(c.k), 10)
			body = append(body, '}')
		}
		body = append(body, "]}"...)
	case opWrite:
		url = append(url, "/feedback"...)
		body = append(body, `{"user":`...)
		body = strconv.AppendInt(body, int64(op.User), 10)
		body = append(body, `,"item":`...)
		body = strconv.AppendInt(body, int64(op.Items[0]), 10)
		body = append(body, '}')
	}
	if c.trace {
		url = append(url, sep)
		url = append(url, "rid="...)
		url = strconv.AppendInt(url, int64(rid), 10)
	}
	if body == nil {
		return http.NewRequest(http.MethodGet, string(url), nil)
	}
	req, err := http.NewRequest(http.MethodPost, string(url), bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// do sends op and reads the whole response.
func (c *Client) do(rid int, op *Op) Sample {
	req, err := c.request(rid, op)
	if err != nil {
		return Sample{Err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Sample{Err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return Sample{Status: resp.StatusCode, Body: body, Err: err}
}

// heapWatch samples the runtime's heap goal every millisecond until
// stopped: the size the collector lets the heap reach before it runs, so
// its peak is the peak heap without depending on where a sample lands on
// the allocation sawtooth.
type heapWatch struct {
	stop chan struct{}
	peak chan uint64
}

// watchHeap starts a heapWatch.
func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-w.stop:
				w.peak <- peak
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// PeakMB stops the watch and returns the largest heap goal it saw, in MiB.
func (w *heapWatch) PeakMB() float64 {
	close(w.stop)
	return float64(<-w.peak) / (1 << 20)
}
