package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// reply is what the client saw of one request.
type reply struct {
	lat      time.Duration // send to last body byte
	status   int
	cache    string // X-Bandwall-Cache
	replica  string // X-Bandwall-Replica (gateway only)
	attempts int    // X-Bandwall-Attempts (gateway only)
	body     []byte // valid until the worker's next request
	err      error
}

// worker is one closed-loop connection's client state.
type worker struct {
	hc  *http.Client
	buf bytes.Buffer
}

// post sends b to base and reads the whole response into the worker's
// buffer.
func (w *worker) post(base string, b body) reply {
	req, err := http.NewRequest(http.MethodPost, base+b.path, bytes.NewReader(b.data))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := w.hc.Do(req)
	if err != nil {
		return reply{lat: time.Since(start), err: err}
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r := reply{
		lat:     time.Since(start),
		status:  resp.StatusCode,
		cache:   resp.Header.Get(serve.CacheHeader),
		replica: resp.Header.Get(fleet.ReplicaHeader),
		body:    w.buf.Bytes(),
		err:     err,
	}
	if a := resp.Header.Get(fleet.AttemptsHeader); a != "" {
		r.attempts, _ = strconv.Atoi(a) // a malformed header counts as zero attempts
	}
	return r
}

// get fetches base+path and discards the body; it opens a connection
// before a measured window starts.
func (w *worker) get(base, path string) error {
	resp, err := w.hc.Get(base + path)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return err
}

// closedLoop runs ops 0..n-1 on len(workers) goroutines, each sending its
// next operation only after the previous one completed, and returns when
// all are done.
func closedLoop(workers []*worker, n int, op func(w *worker, wi, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for wi, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(w, wi, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func newWorkers(hc *http.Client, n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{hc: hc}
	}
	return ws
}

// percentile is the nearest-rank q-quantile of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// median of a float slice; it sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
