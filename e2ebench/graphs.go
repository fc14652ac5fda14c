package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"tvgwait/internal/dtn"
	"tvgwait/internal/engine"
	"tvgwait/internal/journey"
	"tvgwait/internal/tvg"
)

// Requests on generated graphs, as the churn workload sends them:
// building them, checking the answers, replaying them.

// graph is one generated network a workload asks about.
type graph struct {
	spec engine.GraphSpec
	seed int64
}

func markov(nodes int, birth, death float64, horizon tvg.Time) engine.GraphSpec {
	return engine.GraphSpec{Model: "markov", Nodes: nodes, Birth: birth, Death: death, Horizon: horizon}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are encoded
	}
	return b
}

func metricsOp(g graph, modes []string, t0 tvg.Time) op {
	return op{kind: opMetrics, path: "/metrics", body: mustJSON(engine.MetricsRequest{Graph: g.spec, Seed: g.seed, Modes: modes, T0: t0})}
}

func spectrumOp(g graph, modes []string, t0 tvg.Time) op {
	return op{kind: opSpectrum, path: "/spectrum", body: mustJSON(engine.SpectrumRequest{Graph: g.spec, Seed: g.seed, Modes: modes, T0: t0})}
}

func simulateOp(g graph, modes []string, messages int) op {
	return op{kind: opSimulate, path: "/simulate", body: mustJSON(engine.ScenarioSpec{Graph: g.spec, Seed: g.seed, Modes: modes, Messages: messages})}
}

// checkGraphOp checks one answer on a generated graph against the
// library: metric rows against per-mode sweeps of the oracle's contact
// set, /simulate reports against engine.Run in-process.
func checkGraphOp(oracle *engine.Engine, o *op, body []byte) error {
	switch o.kind {
	case opMetrics:
		var req engine.MetricsRequest
		var rep engine.MetricsReport
		if err := decodePair(o.body, body, &req, &rep); err != nil {
			return err
		}
		c, err := oracle.ContactSet(req.Graph, req.Seed)
		if err != nil {
			return err
		}
		if rep.Contacts != c.NumContacts() || rep.T0 != req.T0 || len(rep.Modes) != len(req.Modes) {
			return fmt.Errorf("/metrics header: %d contacts at t0=%d with %d modes, want %d, %d, %d",
				rep.Contacts, rep.T0, len(rep.Modes), c.NumContacts(), req.T0, len(req.Modes))
		}
		return checkRows(c, req.T0, rep.Modes)
	case opSpectrum:
		var req engine.SpectrumRequest
		var rep engine.SpectrumReport
		if err := decodePair(o.body, body, &req, &rep); err != nil {
			return err
		}
		c, err := oracle.ContactSet(req.Graph, req.Seed)
		if err != nil {
			return err
		}
		if rep.Contacts != c.NumContacts() || rep.T0 != req.T0 || len(rep.Rungs) != len(req.Modes) {
			return fmt.Errorf("/spectrum header: %d contacts at t0=%d with %d rungs, want %d, %d, %d",
				rep.Contacts, rep.T0, len(rep.Rungs), c.NumContacts(), req.T0, len(req.Modes))
		}
		return checkRows(c, req.T0, rep.Rungs)
	case opSimulate:
		var req engine.ScenarioSpec
		var rep engine.Report
		if err := decodePair(o.body, body, &req, &rep); err != nil {
			return err
		}
		want, err := oracle.Run(context.Background(), req)
		if err != nil {
			return err
		}
		if got, exp := mustJSON(rep.Unicast), mustJSON(want.Unicast); rep.Contacts != want.Contacts || !bytes.Equal(got, exp) {
			return fmt.Errorf("/simulate: server reports %d contacts %s, engine.Run %d contacts %s", rep.Contacts, got, want.Contacts, exp)
		}
		return nil
	}
	return fmt.Errorf("unexpected op kind %d", o.kind)
}

// decodePair decodes a request body and its answer.
func decodePair(reqBody, repBody []byte, req, rep any) error {
	if err := json.Unmarshal(reqBody, req); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if err := json.Unmarshal(repBody, rep); err != nil {
		return fmt.Errorf("decode answer %.200s: %w", repBody, err)
	}
	return nil
}

// graphReplay replays requests on generated graphs against an
// in-process engine configured like the server.
type graphReplay struct {
	t   *tracer
	eng *engine.Engine
	mu  sync.Mutex
	gen map[string]bool // graphs already generated by a direct gen call
}

func newGraphReplay(t *tracer, opts engine.Options) *graphReplay {
	return &graphReplay{t: t, eng: engine.New(opts), gen: make(map[string]bool)}
}

// generate times one direct generation of g's contacts the first time g
// is seen, as the engine's schedule cache does on its miss.
func (r *graphReplay) generate(g engine.GraphSpec, seed int64) error {
	key := fmt.Sprintf("%+v|%d", g, seed)
	r.mu.Lock()
	seen := r.gen[key]
	r.gen[key] = true
	r.mu.Unlock()
	if seen {
		return nil
	}
	start := time.Now()
	c, err := g.BuildContacts(seed, tvg.NewBuilder())
	if err != nil {
		return err
	}
	r.t.gen(c.NumContacts(), start)
	return nil
}

// warm serves set-up requests without spans, so the in-process engine
// starts the window with the server's caches.
func (r *graphReplay) warm(ops []op) error {
	for _, o := range ops {
		var err error
		var g engine.GraphSpec
		var seed int64
		switch o.kind {
		case opMetrics:
			var req engine.MetricsRequest
			if err = json.Unmarshal(o.body, &req); err == nil {
				g, seed = req.Graph, req.Seed
				_, err = r.eng.Metrics(context.Background(), req)
			}
		case opSpectrum:
			var req engine.SpectrumRequest
			if err = json.Unmarshal(o.body, &req); err == nil {
				g, seed = req.Graph, req.Seed
				_, err = r.eng.Spectrum(context.Background(), req)
			}
		default:
			err = fmt.Errorf("unexpected set-up op %s", o.path)
		}
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.gen[fmt.Sprintf("%+v|%d", g, seed)] = true
		r.mu.Unlock()
	}
	return nil
}

// op replays one request: the handler's decode, engine call and encode,
// then the journey or dtn work behind the answer, called directly. A
// warm /metrics or /spectrum answer hit both the schedule and the row
// cache, so the engine ran no kernel for it and none is called.
func (r *graphReplay) op(o *op) error {
	t := r.t
	switch o.kind {
	case opMetrics:
		req, warm, err := serve(t, "engine.metrics_ms", o.body, r.eng.Metrics)
		if err != nil || warm {
			return err
		}
		modes, err := engine.ParseModes(req.Modes)
		if err != nil {
			return err
		}
		return r.sweep(req.Graph, req.Seed, modes, req.T0, len(modes) > 1)
	case opSpectrum:
		req, warm, err := serve(t, "engine.spectrum_ms", o.body, r.eng.Spectrum)
		if err != nil || warm {
			return err
		}
		modes, err := engine.ParseModes(req.Modes)
		if err != nil {
			return err
		}
		return r.sweep(req.Graph, req.Seed, modes, req.T0, true)
	case opSimulate:
		req, _, err := serve(t, "engine.simulate_ms", o.body, r.eng.Run)
		if err != nil {
			return err
		}
		if err := r.generate(req.Graph, req.Seed); err != nil {
			return err
		}
		modes, err := engine.ParseModes(req.Modes)
		if err != nil {
			return err
		}
		c, err := r.eng.ContactSet(req.Graph, req.Seed)
		if err != nil {
			return err
		}
		msgs := req.WorkloadFor(0)
		scratch := dtn.NewScratch()
		start := time.Now()
		for _, m := range modes {
			for _, msg := range msgs {
				if _, err := scratch.Simulate(c, m, msg); err != nil {
					return err
				}
			}
		}
		t.since("dtn.flood_ms", start)
		return nil
	}
	return fmt.Errorf("unexpected op kind %d", o.kind)
}

// sweep runs the journey kernel behind a metrics answer: one
// single-mode all-pairs sweep, or one wait-spectrum sweep for a ladder
// (/spectrum, and /metrics with more than one mode).
func (r *graphReplay) sweep(g engine.GraphSpec, seed int64, modes []journey.Mode, t0 tvg.Time, ladder bool) error {
	if err := r.generate(g, seed); err != nil {
		return err
	}
	c, err := r.eng.ContactSet(g, seed)
	if err != nil {
		return err
	}
	if !ladder {
		start := time.Now()
		journey.AllForemostStats(c, modes[0], t0, 1, 0, &r.t.sweeps)
		r.t.sweep("journey.foremost_ms", start)
		return nil
	}
	l, err := journey.NewLadder(modes...)
	if err != nil {
		return err
	}
	start := time.Now()
	journey.WaitSpectrumStats(c, l, t0, 1, 0, &r.t.sweeps)
	r.t.sweep("journey.spectrum_ms", start)
	return nil
}

// deal splits ops round-robin into n lanes.
func deal(ops []op, n int) [][]op {
	lanes := make([][]op, n)
	for i, o := range ops {
		lanes[i%n] = append(lanes[i%n], o)
	}
	return lanes
}

// checkOutcomes checks every answered request on a generated graph
// against the library, on every core.
func checkOutcomes(lanes [][]op, outs [][]outcome) error {
	type item struct {
		o    *op
		body []byte
	}
	var items []item
	for i, lane := range outs {
		for j, res := range lane {
			if res.ok() {
				items = append(items, item{&lanes[i][j], res.body})
			}
		}
	}
	oracle := newOracleEngine()
	defer oracle.Close()
	return parallel(len(items), func(i int) error {
		if err := checkGraphOp(oracle, items[i].o, items[i].body); err != nil {
			return fmt.Errorf("%s %s: %w", items[i].o.path, items[i].o.body, err)
		}
		return nil
	})
}
