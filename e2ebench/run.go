package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// workload is what differs between churn and ingest. A workload
// is built from the seed before any server starts; every request body
// it sends is prebuilt.
type workload interface {
	// args are the tvgserve flags of every server in the run, besides
	// the listener addresses; dataDir is the server's own copy of the
	// seeded data directory ("" when the workload is memory-only).
	args(dataDir string) []string
	// seededDir is the data directory the benchmark seeded, copied
	// afresh for every server ("" when memory-only).
	seededDir() string
	// setup is sent once the server is ready; it is part of set-up time.
	setup() []op
	// lanes are the timed requests, one lane per loop client.
	lanes() [][]op
	// probe checks the window's server once it is set up, before the
	// window (ingest: the recovered revisions and watermarks).
	probe(cl *http.Client, s *server) error
	// verify checks the run's answers against the library in-process,
	// and the workload's own guards against the counters the server
	// reported over the window (delta). The server is still up.
	verify(cl *http.Client, s *server, outs [][]outcome, delta map[string]float64) error
	// replay re-runs the first done[i] ops of every lane in-process with
	// spans around each layer's calls (see trace.go).
	replay(t *tracer, done []int, window time.Duration) error
}

// setupRuns is how many fresh servers a run sets up: set-up time is the
// median over them, and the last one serves the timed window.
const setupRuns = 5

func run(cfg config) (*result, error) {
	if cfg.server == "" {
		return nil, fmt.Errorf("-server is required (run.sh builds tvgserve and passes it)")
	}
	if _, err := os.Stat(cfg.server); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	wl, err := newWorkload(cfg, dir)
	if err != nil {
		return nil, err
	}
	cl := newClient(clients())
	defer cl.CloseIdleConnections()

	n := setupRuns
	if cfg.trace || cfg.smoke {
		n = 1
	}
	var setups []float64
	var s *server
	for i := 0; i < n; i++ {
		srv, d, err := startAndSetUp(cfg, wl, cl, filepath.Join(dir, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < n-1 {
			srv.kill()
			continue
		}
		s = srv
	}
	stopped := false
	defer func() {
		if !stopped {
			s.kill()
		}
	}()

	if err := wl.probe(cl, s); err != nil {
		return nil, err
	}
	before, err := s.scrape(cl)
	if err != nil {
		return nil, err
	}
	lanes := wl.lanes()
	outs, elapsed := runLanes(cl, s.base, lanes, cfg.window/warmupShare, cfg.window)
	after, err := s.scrape(cl)
	if err != nil {
		return nil, err
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return nil, err
	}
	delta := make(map[string]float64, len(after))
	for k, v := range after {
		delta[k] = v - before[k]
	}

	res := &result{Correct: true, Metrics: make(map[string]metric)}
	var samples []sample
	done := make([]int, len(outs))
	for i, lane := range outs {
		done[i] = len(lane)
		for j, o := range lane {
			res.Attempted++
			if !o.ok() {
				res.Failed++
				if res.Failed <= 3 {
					fmt.Fprintf(os.Stderr, "e2ebench: %s failed: status %d, err %v: %.200s\n", lanes[i][j].path, o.status, o.err, o.body)
				}
				continue
			}
			if o.end >= 0 {
				samples = append(samples, sample{lanes[i][j].kind, o.lat, o.end})
			}
		}
	}
	if err := wl.verify(cl, s, outs, delta); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: correctness check failed:", err)
		res.Correct = false
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	stopped = true
	if err := s.stop(); err != nil {
		return nil, err
	}
	fig := func(f func([]sample) float64) float64 { return perPart(samples, elapsed, f) }
	tput := fig(func(ss []sample) float64 { return float64(len(ss)) / (elapsed.Seconds() / windowParts) })
	if !cfg.trace {
		res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
		res.Metrics["tput_rps"] = metric{tput, "1/s"}
		res.Metrics["p50_ms"] = metric{fig(latency(0.5, anyOp)), "ms"}
		res.Metrics["p90_ms"] = metric{fig(latency(0.9, anyOp)), "ms"}
		res.Metrics["rss_peak_mb"] = metric{rss, "MB"}
		return res, nil
	}

	t := newTracer(before, after)
	t.set("e2e.read_p50_ms", fig(latency(0.5, readOp)))
	t.set("e2e.write_p50_ms", fig(latency(0.5, writeOp)))
	t.set("e2e.write_p90_ms", fig(latency(0.9, writeOp)))
	// Half a window of replay gives every layer enough calls for a median.
	if err := wl.replay(t, done, cfg.window/2); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	traced := t.tput()
	t.set("trace.untraced_tput_rps", tput)
	t.set("trace.tput_rps", traced)
	t.set("trace.overhead_pct", 100*(1-traced/tput))
	res.Metrics = t.metrics()
	return res, nil
}

// The loop runs a warm-up of a warmupShare-th of the window before it,
// whose answers are checked but not timed, so the window starts with the
// server's heap and caches in their steady state.
const warmupShare = 10

// windowParts is how many equal parts of the window the loop's figures
// are taken over: each figure is the mean of its per-part values without
// the partsTrimmed highest and lowest, so a few seconds of contention
// from outside the benchmark move it less.
const windowParts, partsTrimmed = 10, 2

// sample is one answered request of the window.
type sample struct {
	kind     opKind
	lat, end time.Duration // latency, and answer time since the window opened
}

// perPart returns the trimmed mean over the window's parts of f applied
// to the samples answered in each part.
func perPart(samples []sample, elapsed time.Duration, f func([]sample) float64) float64 {
	parts := make([][]sample, windowParts)
	for _, s := range samples {
		p := min(int(int64(s.end)*windowParts/int64(elapsed)), windowParts-1)
		parts[p] = append(parts[p], s)
	}
	xs := make([]float64, windowParts)
	for i, p := range parts {
		xs[i] = f(p)
	}
	slices.Sort(xs)
	sum := 0.0
	for _, x := range xs[partsTrimmed : windowParts-partsTrimmed] {
		sum += x
	}
	return sum / (windowParts - 2*partsTrimmed)
}

func anyOp(opKind) bool     { return true }
func writeOp(k opKind) bool { return k == opWrite }
func readOp(k opKind) bool  { return k == opMetrics || k == opSpectrum || k == opRead }

// latency returns the q-quantile latency in milliseconds of the samples
// whose kind keep accepts.
func latency(q float64, keep func(opKind) bool) func([]sample) float64 {
	return func(ss []sample) float64 {
		var xs []float64
		for _, s := range ss {
			if keep(s.kind) {
				xs = append(xs, float64(s.lat)/float64(time.Millisecond))
			}
		}
		return quantile(xs, q)
	}
}

// startAndSetUp starts one server on a fresh copy of the seeded data
// directory and brings it to workload-ready, returning the time from
// exec to ready.
func startAndSetUp(cfg config, wl workload, cl *http.Client, dataDir string) (*server, time.Duration, error) {
	if wl.seededDir() == "" {
		dataDir = ""
	} else if err := copyDir(wl.seededDir(), dataDir); err != nil {
		return nil, 0, err
	}
	s, err := startServer(cfg.server, wl.args(dataDir))
	if err != nil {
		return nil, 0, err
	}
	s.dataDir = dataDir
	if _, err := s.waitReady(cl, 60*time.Second); err != nil {
		s.kill()
		return nil, 0, err
	}
	if err := sendAll(cl, s.base, wl.setup(), clients()); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(s.started), nil
}

// copyDir copies the regular files of src into a new directory dst and
// flushes them to disk, so the server timed next neither waits for the
// copy's writeback (an fsync in ext4's ordered mode can) nor shares the
// disk with it.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := writeSynced(filepath.Join(dst, e.Name()), b); err != nil {
			return err
		}
	}
	return nil
}

// writeSynced writes b to a new file at path and fsyncs it.
func writeSynced(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newWorkload builds the named workload's inputs from the seed; dir is
// the run's private directory.
func newWorkload(cfg config, dir string) (workload, error) {
	switch cfg.workload {
	case "churn":
		return newChurn(cfg)
	case "ingest":
		return newIngest(cfg, dir)
	default:
		return nil, fmt.Errorf("unknown -workload %q (want churn or ingest)", cfg.workload)
	}
}
