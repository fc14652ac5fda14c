package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// opKind classifies a request for the latency breakdown and the oracle.
type opKind uint8

const (
	opMetrics  opKind = iota // POST /metrics on a generated graph
	opSpectrum               // POST /spectrum on a generated graph
	opSimulate               // POST /simulate
	opWrite                  // POST /contacts batch on a live stream
	opRead                   // POST /metrics or /spectrum on a live stream
)

// op is one prebuilt request. Bodies are encoded from the seed before
// the timed window, so the loop only sends bytes.
type op struct {
	kind opKind
	path string
	body []byte
	// head marks a churn request from the warm head (an exact repeat of
	// a request served during set-up).
	head bool
	// stream indexes the live stream of an ingest op; batch indexes the
	// stream's batch a write carries.
	stream, batch int
}

// outcome is one answered (or failed) request.
type outcome struct {
	status int
	err    error
	lat    time.Duration
	end    time.Duration // answer time since the window opened, after the warm-up (timed loop only)
	body   []byte
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// newClient returns an HTTP client with one keep-alive connection per
// loop client.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns + 1, // the loop's connections plus one for probes
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends one request and reads the whole answer.
func post(ctx context.Context, cl *http.Client, base string, o *op) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return outcome{err: err, lat: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{status: resp.StatusCode, err: err, lat: time.Since(start), body: body}
}

// runLanes drives a closed loop: one goroutine per lane sends the lane's
// ops in order, each after the previous one was answered, for warmup and
// then the window. It returns each lane's outcomes (a prefix of its ops),
// with answer times measured from the end of the warm-up (negative for
// warm-up answers), and the window's length, from the end of the warm-up
// to the last answer. A lane that runs out of prebuilt ops (a host much
// faster than the plan was sized for) closes the window early for every
// lane.
func runLanes(cl *http.Client, base string, lanes [][]op, warmup, window time.Duration) ([][]outcome, time.Duration) {
	// The loop allocates little (answer bodies); collecting garbage in the
	// window would only take cores from the server.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([][]outcome, len(lanes))
	var ranOut atomic.Bool
	open := time.Now().Add(warmup)
	deadline := open.Add(window)
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := make([]outcome, 0, len(lanes[i]))
			for j := range lanes[i] {
				if ranOut.Load() || !time.Now().Before(deadline) {
					break
				}
				o := post(context.Background(), cl, base, &lanes[i][j])
				o.end = time.Since(open)
				res = append(res, o)
			}
			if len(res) == len(lanes[i]) {
				ranOut.Store(true)
			}
			out[i] = res
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(open)
	if ranOut.Load() {
		fmt.Fprintf(os.Stderr, "e2ebench: a lane used up its prebuilt requests; the window closed after %s\n", elapsed.Round(time.Millisecond))
	}
	return out, elapsed
}

// sendAll sends ops from up to conns goroutines and fails on the first
// request that is not answered 200; set-up uses it.
func sendAll(cl *http.Client, base string, ops []op, conns int) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += conns {
				if o := post(context.Background(), cl, base, &ops[i]); !o.ok() {
					errs[w] = fmt.Errorf("set-up %s: status %d, err %v: %s", ops[i].path, o.status, o.err, bytes.TrimSpace(o.body))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
