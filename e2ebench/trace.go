package main

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"tvgwait/internal/engine"
	"tvgwait/internal/obs"
)

// The traced run replays the timed window's requests in-process and
// records a span around every call into a layer's public function: the
// JSON decode and encode tvgserve does per request, the engine call,
// and direct calls into gen, tvg, journey, dtn and store on the same
// inputs. Spans are kept in memory and reduced to the per-layer metrics
// below when the replay ends. No tracing runs inside the program; the
// counters the program already keeps are read from /debug/metrics.

// layerMetrics lists every per-layer metric a traced run prints, with
// its unit. A layer a workload never calls reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"tvgserve.decode_us", "us"},
	{"tvgserve.encode_us", "us"},
	{"tvgserve.resp_kb", "kB"},
	{"engine.metrics_ms", "ms"},
	{"engine.spectrum_ms", "ms"},
	{"engine.simulate_ms", "ms"},
	{"engine.ingest_ms", "ms"},
	{"engine.warm_share", "ratio"},
	{"engine.schedule_hits", "count"},
	{"engine.schedule_misses", "count"},
	{"engine.coalesced", "count"},
	{"engine.evictions", "count"},
	{"engine.cache_mb", "MB"},
	{"engine.ckpt_hits", "count"},
	{"engine.ckpt_advances", "count"},
	{"engine.ckpt_cold", "count"},
	{"gen.build_ms", "ms"},
	{"gen.contacts_per_s", "1/s"},
	{"tvg.append_us", "us"},
	{"journey.foremost_ms", "ms"},
	{"journey.spectrum_ms", "ms"},
	{"journey.advance_ms", "ms"},
	{"journey.contacts_per_sweep", "count"},
	{"journey.blocks", "count"},
	{"journey.early_exit_share", "ratio"},
	{"journey.sparse_fallbacks", "count"},
	{"journey.width", "count"},
	{"dtn.flood_ms", "ms"},
	{"store.append_us", "us"},
	{"store.sync_wait_us", "us"},
	{"store.compact_ms", "ms"},
	{"store.recover_s", "s"},
	{"store.wal_records", "count"},
	{"store.compactions", "count"},
	{"store.snapshots", "count"},
	{"store.bytes_per_contact", "B"},
	{"e2e.read_p50_ms", "ms"},
	{"e2e.write_p50_ms", "ms"},
	{"e2e.write_p90_ms", "ms"},
	{"trace.tput_rps", "1/s"},
	{"trace.untraced_tput_rps", "1/s"},
	{"trace.overhead_pct", "%"},
}

// tracer collects the spans and counts of one traced replay.
type tracer struct {
	mu      sync.Mutex
	spans   map[string][]time.Duration // per-call durations, reduced to their median
	values  map[string]float64         // figures set directly
	n       atomic.Int64               // requests replayed
	warm    atomic.Int64               // requests served fully from engine caches
	sweeps  obs.SweepStats             // the journey calls' counters
	nsweeps atomic.Int64               // journey calls made
	built   atomic.Int64               // contacts generated by gen calls
	buildNS atomic.Int64               // time spent in gen calls
	replay  time.Duration              // wall time of the replayed window
}

// newTracer starts a trace; before and after are the server's counters
// around the timed window.
func newTracer(before, after map[string]float64) *tracer {
	t := &tracer{spans: make(map[string][]time.Duration), values: make(map[string]float64)}
	d := func(k string) float64 { return after[k] - before[k] }
	var coalesced, evictions float64
	for _, c := range []string{"schedule", "metrics", "spectra"} {
		coalesced += d(`tvg_engine_cache_coalesced_total{cache="` + c + `"}`)
		evictions += d(`tvg_engine_cache_evictions_total{cache="` + c + `"}`)
	}
	t.values["engine.schedule_hits"] = d(`tvg_engine_cache_hits_total{cache="schedule"}`)
	t.values["engine.schedule_misses"] = d(`tvg_engine_cache_misses_total{cache="schedule"}`)
	t.values["engine.coalesced"] = coalesced
	t.values["engine.evictions"] = evictions + d("tvg_engine_checkpoint_evictions_total")
	t.values["engine.cache_mb"] = after["tvg_engine_cache_budget_used_bytes"] / (1 << 20)
	t.values["engine.ckpt_hits"] = d("tvg_engine_checkpoint_hits_total")
	t.values["engine.ckpt_advances"] = d("tvg_engine_checkpoint_advances_total")
	t.values["engine.ckpt_cold"] = d("tvg_engine_checkpoint_cold_builds_total")
	t.values["store.wal_records"] = d("tvg_store_wal_records_total")
	t.values["store.compactions"] = d("tvg_store_compactions_total")
	t.values["store.snapshots"] = d("tvg_store_snapshots_written_total")
	return t
}

// since records one span of the named layer call that began at start.
func (t *tracer) since(name string, start time.Time) {
	t.add(name, time.Since(start))
}

// add records one span of the named layer call.
func (t *tracer) add(name string, d time.Duration) {
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], d)
	t.mu.Unlock()
}

// set records a figure measured outside the spans.
func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.values[name] = v
	t.mu.Unlock()
}

// tput is the replay's rate in requests per second.
func (t *tracer) tput() float64 { return float64(t.n.Load()) / t.replay.Seconds() }

// gen records one generation of n contacts that began at start.
func (t *tracer) gen(n int, start time.Time) { t.genDone(n, time.Since(start)) }

// genDone records one generation of n contacts that took d.
func (t *tracer) genDone(n int, d time.Duration) {
	t.add("gen.build_ms", d)
	t.built.Add(int64(n))
	t.buildNS.Add(int64(d))
}

// serve replays one request the way tvgserve's handler runs it: decode
// the body into req (unknown fields refused), call the engine, encode
// the answer. It records the three spans and returns the request and
// whether every engine cache lookup it made hit (engine.CacheTrace.Warm).
func serve[Req, Rep any](t *tracer, engineSpan string, body []byte, call func(context.Context, Req) (Rep, error)) (Req, bool, error) {
	var req Req
	start := time.Now()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, false, err
	}
	t.since("tvgserve.decode_us", start)
	ctx, ct := engine.WithCacheTrace(context.Background())
	start = time.Now()
	rep, err := call(ctx, req)
	if err != nil {
		return req, false, err
	}
	t.since(engineSpan, start)
	start = time.Now()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rep); err != nil {
		return req, false, err
	}
	t.since("tvgserve.encode_us", start)
	t.mu.Lock()
	t.values["tvgserve.resp_kb"] += float64(buf.Len()) / 1000
	t.mu.Unlock()
	warm := ct.Warm()
	if warm {
		t.warm.Add(1)
	}
	t.n.Add(1)
	return req, warm, nil
}

// sweep records one journey call that began at start.
func (t *tracer) sweep(name string, start time.Time) {
	t.since(name, start)
	t.nsweeps.Add(1)
}

// metrics reduces the trace to the per-layer metrics.
func (t *tracer) metrics() map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	units := map[string]time.Duration{"us": time.Microsecond, "ms": time.Millisecond, "s": time.Second}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		v := t.values[m.name]
		if spans, ok := t.spans[m.name]; ok {
			xs := make([]float64, len(spans))
			for i, d := range spans {
				xs[i] = float64(d) / float64(units[m.unit])
			}
			v = quantile(xs, 0.5)
		}
		out[m.name] = metric{v, m.unit}
	}
	if n := t.n.Load(); n > 0 {
		out["tvgserve.resp_kb"] = metric{t.values["tvgserve.resp_kb"] / float64(n), "kB"}
		out["engine.warm_share"] = metric{float64(t.warm.Load()) / float64(n), "ratio"}
	}
	if ns := t.buildNS.Load(); ns > 0 {
		out["gen.contacts_per_s"] = metric{float64(t.built.Load()) / (float64(ns) / 1e9), "1/s"}
	}
	blocks := float64(t.sweeps.Blocks.Value())
	out["journey.blocks"] = metric{blocks, "count"}
	if n := t.nsweeps.Load(); n > 0 {
		out["journey.contacts_per_sweep"] = metric{float64(t.sweeps.Contacts.Value()) / float64(n), "count"}
	}
	if blocks > 0 {
		out["journey.early_exit_share"] = metric{float64(t.sweeps.EarlyExits.Value()) / blocks, "ratio"}
	}
	out["journey.sparse_fallbacks"] = metric{float64(t.sweeps.SparseFallbacks.Value()), "count"}
	out["journey.width"] = metric{float64(t.sweeps.Width.Value()), "count"}
	return out
}

// replayLanes runs fn over the first done[i] ops of every lane, one
// goroutine per lane like the timed loop, until they are replayed or
// the window closes, and records the time it took in t.
func replayLanes(t *tracer, lanes [][]op, done []int, window time.Duration, fn func(lane int, o *op) error) error {
	start := time.Now()
	defer func() { t.replay = time.Since(start) }()
	deadline := start.Add(window)
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < done[i] && time.Now().Before(deadline); j++ {
				if err := fn(i, &lanes[i][j]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
