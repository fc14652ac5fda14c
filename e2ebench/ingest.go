package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"tvgwait/internal/engine"
	"tvgwait/internal/gen"
	"tvgwait/internal/journey"
	"tvgwait/internal/store"
	"tvgwait/internal/tvg"
)

// ingest: durable live streams. The server recovers a data directory
// the benchmark seeded (snapshots plus a WAL suffix) with -fsync always.
// Each loop client is the only writer of its own streams: about half of
// its requests are POST /contacts batches, the rest /metrics and
// /spectrum reads at the latest revision, which advance the engine's
// checkpoints by suffix replay. Segment and compaction thresholds are
// small, so compaction runs several times per window.
type ingestWL struct {
	dir     string // the seeded data directory
	streams []*stream
	ops     [][]op
	genDur  []time.Duration // generation time of each stream's contacts
	genN    []int           // and their number
	// diskBytesPerContact is measured on the window's server at the end.
	diskBytesPerContact float64
}

// stream is one live stream's prebuilt contact batches.
type stream struct {
	name    string
	nodes   int
	horizon tvg.Time
	batches [][]tvg.ContactRecord // every batch, seeded ones first
	seeded  int                   // batches written while seeding
}

const (
	ingestCacheBytes = 256 << 20
	walSegmentBytes  = 1 << 20
	compactBytes     = 4 << 20
)

var (
	ingestPairModes = []string{"nowait", "wait"}
	ingestLadder    = []string{"nowait", "wait:2", "wait"}
)

func newIngest(cfg config, runDir string) (*ingestWL, error) {
	// The horizon is fixed, so the per-batch work (which grows with the
	// horizon) does not depend on the window's length.
	perClient, nodes, horizon := 6, 24, tvg.Time(10000)
	const ticksPerBatch, chunkTicks = 1, 1000
	snapTicks, walBatches := tvg.Time(2000), 100
	// Contacts for the streams to take 3000 writes/s in total, as far as
	// the horizon allows.
	window := int(cfg.window.Seconds()*3000)/(perClient*clients()) + 200
	if cfg.smoke {
		perClient, nodes, horizon, snapTicks, walBatches = 1, 12, 4000, chunkTicks, 20
	}
	window = min(window, int((horizon-snapTicks)*4/5/ticksPerBatch)-walBatches)
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &ingestWL{dir: filepath.Join(runDir, "seeded")}
	n := clients() * perClient
	snapChunks := int(snapTicks / chunkTicks)
	for i := 0; i < n; i++ {
		s := &stream{name: "s" + strconv.Itoa(i), nodes: nodes, horizon: horizon, seeded: snapChunks + walBatches}
		// The stream's contacts follow an edge-Markovian birth-death
		// process: the snapshot part is cut into chunks of chunkTicks
		// ticks, the rest into batches of ticksPerBatch ticks, with 25%
		// slack for empty tick ranges.
		genTicks := min(snapTicks+tvg.Time(walBatches+window)*ticksPerBatch*5/4, horizon)
		start := time.Now()
		c, err := gen.EdgeMarkovian(gen.EdgeMarkovianParams{
			Nodes: nodes, PBirth: 0.02, PDeath: 0.5, Horizon: genTicks - 1,
			Seed: rng.Int63(), SkipSampling: true,
		}, tvg.NewBuilder())
		if err != nil {
			return nil, err
		}
		w.genDur = append(w.genDur, time.Since(start))
		w.genN = append(w.genN, c.NumContacts())
		recs := make([]tvg.ContactRecord, 0, c.NumContacts())
		for _, ct := range c.Contacts() {
			recs = append(recs, tvg.ContactRecord{From: ct.From, To: ct.To, Dep: ct.Dep, Arr: ct.Arr})
		}
		slices.SortFunc(recs, func(a, b tvg.ContactRecord) int { return int(a.Dep - b.Dep) })
		for len(recs) > 0 {
			span := tvg.Time(ticksPerBatch)
			if recs[0].Dep < snapTicks {
				span = chunkTicks
			}
			end := recs[0].Dep/span*span + span
			k := 1
			for k < len(recs) && recs[k].Dep < end {
				k++
			}
			s.batches = append(s.batches, recs[:k:k])
			recs = recs[k:]
		}
		if len(s.batches) < s.seeded+window {
			return nil, fmt.Errorf("stream %s has %d batches, want %d", s.name, len(s.batches), s.seeded+window)
		}
		w.streams = append(w.streams, s)
	}
	if err := w.seed(snapChunks); err != nil {
		return nil, fmt.Errorf("seed data directory: %w", err)
	}

	// Each client owns perClient streams and writes them round-robin;
	// reads pick one of its streams and a question at random.
	w.ops = make([][]op, clients())
	for c := range w.ops {
		next := make([]int, perClient)
		for i := range next {
			next[i] = w.streams[c*perClient+i].seeded
		}
		// Blocks of ten requests carry six writes and four reads in a
		// seeded order, so the write share is fixed by construction and
		// p50_ms sits inside the write mode rather than between two modes.
	plan:
		for wi := 0; ; {
			for _, slot := range rng.Perm(10) {
				if slot >= 6 {
					s := c*perClient + rng.Intn(perClient)
					g := graph{spec: engine.GraphSpec{Model: "stream", Stream: w.streams[s].name}}
					o := metricsOp(g, ingestPairModes, 0)
					if rng.Intn(2) == 1 {
						o = spectrumOp(g, ingestLadder, 0)
					}
					o.kind, o.stream = opRead, s
					w.ops[c] = append(w.ops[c], o)
					continue
				}
				i := wi % perClient
				s := w.streams[c*perClient+i]
				if next[i] == len(s.batches) {
					break plan
				}
				w.ops[c] = append(w.ops[c], op{kind: opWrite, path: "/contacts", stream: c*perClient + i, batch: next[i],
					body: mustJSON(engine.IngestRequest{Stream: s.name, Contacts: s.batches[next[i]]})})
				next[i]++
				wi++
			}
		}
	}
	return w, nil
}

// seed writes the data directory every server of the run recovers: each
// stream created, its first snapBatches batches compacted into a
// snapshot, the rest of its seeded batches left in the WAL.
func (w *ingestWL) seed(snapBatches int) error {
	st, _, err := store.Open(w.dir, store.Options{Policy: store.SyncNone, SegmentBytes: walSegmentBytes, CompactBytes: -1})
	if err != nil {
		return err
	}
	e := engine.New(engine.Options{Workers: 1, Ingest: st})
	defer e.Close()
	for _, s := range w.streams {
		if _, err := e.CreateStream(s.name, s.nodes, s.horizon); err != nil {
			return err
		}
	}
	appendRange := func(from, to int) error {
		for k := from; k < to; k++ {
			for _, s := range w.streams {
				if _, err := e.AppendStream(s.name, s.batches[k]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := appendRange(0, snapBatches); err != nil {
		return err
	}
	if err := st.Compact(); err != nil {
		return err
	}
	if err := appendRange(snapBatches, w.streams[0].seeded); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}
	return st.Close()
}

func (w *ingestWL) args(dataDir string) []string {
	return []string{"-workers", "1", "-inflight", "4", "-cache-bytes", strconv.Itoa(ingestCacheBytes),
		"-data-dir", dataDir, "-fsync", "always",
		"-wal-segment-bytes", strconv.Itoa(walSegmentBytes), "-compact-bytes", strconv.Itoa(compactBytes),
		"-compact-interval", "250ms"}
}

func (w *ingestWL) seededDir() string { return w.dir }
func (w *ingestWL) setup() []op       { return nil }
func (w *ingestWL) lanes() [][]op     { return w.ops }

// probe checks that the window's server recovered every stream at the
// seeded revision and watermark, with an empty batch (a shape probe).
func (w *ingestWL) probe(cl *http.Client, s *server) error {
	for _, st := range w.streams {
		o := op{path: "/contacts", body: mustJSON(engine.IngestRequest{Stream: st.name})}
		res := post(context.Background(), cl, s.base, &o)
		if !res.ok() {
			return fmt.Errorf("probe stream %s: status %d, err %v: %s", st.name, res.status, res.err, res.body)
		}
		var rep engine.IngestReport
		if err := decodePair(o.body, res.body, &engine.IngestRequest{}, &rep); err != nil {
			return err
		}
		want := st.expect(st.seeded)
		if rep.Revision != want.Revision || rep.LastDep != want.LastDep || rep.Contacts != want.Contacts {
			return fmt.Errorf("stream %s recovered at revision %d, watermark %d, %d contacts; seeded %d, %d, %d",
				st.name, rep.Revision, rep.LastDep, rep.Contacts, want.Revision, want.LastDep, want.Contacts)
		}
	}
	return nil
}

// expect is the stream's state once its first k batches are applied.
func (s *stream) expect(k int) engine.IngestReport {
	rep := engine.IngestReport{Stream: s.name, Revision: uint64(k), Nodes: s.nodes, Horizon: s.horizon}
	for _, b := range s.batches[:k] {
		rep.Contacts += len(b)
	}
	if k > 0 {
		rep.LastDep = s.batches[k-1][len(s.batches[k-1])-1].Dep
	}
	return rep
}

func (w *ingestWL) verify(cl *http.Client, s *server, outs [][]outcome, _ map[string]float64) error {
	// Every ack reports the revision, watermark and size the stream must
	// have after that batch.
	acked := make([]int, len(w.streams))
	for i, st := range w.streams {
		acked[i] = st.seeded
	}
	for i, lane := range outs {
		for j, res := range lane {
			o := &w.ops[i][j]
			if o.kind != opWrite || !res.ok() {
				continue
			}
			st := w.streams[o.stream]
			var rep engine.IngestReport
			if err := decodePair(o.body, res.body, &engine.IngestRequest{}, &rep); err != nil {
				return err
			}
			if want := st.expect(o.batch + 1); rep != want {
				return fmt.Errorf("ack of batch %d on %s: %+v, want %+v", o.batch, st.name, rep, want)
			}
			acked[o.stream] = o.batch + 1
		}
	}
	// Each stream's final /metrics equals a cold sweep of its whole
	// acked contact list.
	total := 0
	for i, st := range w.streams {
		o := metricsOp(graph{spec: engine.GraphSpec{Model: "stream", Stream: st.name}}, ingestPairModes, 0)
		res := post(context.Background(), cl, s.base, &o)
		if !res.ok() {
			return fmt.Errorf("final /metrics on %s: status %d, err %v", st.name, res.status, res.err)
		}
		var rep engine.MetricsReport
		if err := decodePair(o.body, res.body, &engine.MetricsRequest{}, &rep); err != nil {
			return err
		}
		c, err := st.cold(acked[i])
		if err != nil {
			return err
		}
		if rep.Contacts != c.NumContacts() {
			return fmt.Errorf("final /metrics on %s: %d contacts, acked %d", st.name, rep.Contacts, c.NumContacts())
		}
		if err := checkRows(c, 0, rep.Modes); err != nil {
			return fmt.Errorf("final /metrics on %s: %w", st.name, err)
		}
		total += c.NumContacts()
	}
	bytes, err := dirBytes(s.dataDir)
	if err != nil {
		return err
	}
	w.diskBytesPerContact = float64(bytes) / float64(total)
	return nil
}

// cold builds the stream's first k batches as one fresh contact set.
func (s *stream) cold(k int) (*tvg.ContactSet, error) {
	b := tvg.NewBuilder()
	b.Reset(s.nodes, s.horizon)
	empty, err := b.Finalize()
	if err != nil {
		return nil, err
	}
	var all []tvg.ContactRecord
	for _, batch := range s.batches[:k] {
		all = append(all, batch...)
	}
	return empty.AppendContacts(all)
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// timedSink wraps the store as the in-process engine's ingest sink and
// records the WAL append and the durability wait as spans.
type timedSink struct {
	st *store.Store
	t  *tracer
}

func (s timedSink) StreamCreated(name string, set *tvg.ContactSet) (func() error, error) {
	return s.st.StreamCreated(name, set)
}

func (s timedSink) BatchAppended(name string, recs []tvg.ContactRecord, set *tvg.ContactSet) (func() error, error) {
	start := time.Now()
	wait, err := s.st.BatchAppended(name, recs, set)
	s.t.since("store.append_us", start)
	if err != nil || wait == nil {
		return wait, err
	}
	return func() error {
		start := time.Now()
		err := wait()
		s.t.since("store.sync_wait_us", start)
		return err
	}, nil
}

func (w *ingestWL) replay(t *tracer, done []int, window time.Duration) error {
	for i, d := range w.genDur {
		t.genDone(w.genN[i], d)
	}
	t.set("store.bytes_per_contact", w.diskBytesPerContact)
	dir := w.dir + "-replay"
	if err := copyDir(w.dir, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	st, recovered, err := store.Open(dir, store.Options{Policy: store.SyncAlways, SegmentBytes: walSegmentBytes, CompactBytes: -1})
	if err != nil {
		return err
	}
	t.since("store.recover_s", start)
	defer st.Close()
	e := engine.New(engine.Options{Workers: 1, MaxCacheBytes: ingestCacheBytes, Ingest: timedSink{st, t}})
	defer e.Close()
	for name, set := range recovered {
		if err := e.InstallStream(name, set); err != nil {
			return err
		}
	}
	// Independent copies of each stream, for direct tvg appends and
	// checkpointed journey sweeps on the same revisions the engine sees.
	chains := make([]*tvg.ContactSet, len(w.streams))
	for i, s := range w.streams {
		if chains[i], err = s.cold(s.seeded); err != nil {
			return err
		}
	}
	type ckKey struct {
		stream int
		ladder string
	}
	cks := make([]map[ckKey]*journey.SweepCheckpoint, len(w.ops))
	for i := range cks {
		cks[i] = make(map[ckKey]*journey.SweepCheckpoint)
	}
	var compacting sync.Mutex
	return replayLanes(t, w.ops, done, window, func(lane int, o *op) error {
		s := w.streams[o.stream]
		if o.kind == opWrite {
			req, _, err := serve(t, "engine.ingest_ms", o.body, func(_ context.Context, req engine.IngestRequest) (*engine.IngestReport, error) {
				return e.Ingest(req)
			})
			if err != nil {
				return err
			}
			start := time.Now()
			chains[o.stream], err = chains[o.stream].AppendContacts(req.Contacts)
			if err != nil {
				return err
			}
			t.since("tvg.append_us", start)
			// The server's compactor triggers on the WAL footprint.
			if st.WAL().Size() > compactBytes && compacting.TryLock() {
				defer compacting.Unlock()
				start := time.Now()
				if err := st.Compact(); err != nil {
					return err
				}
				t.since("store.compact_ms", start)
			}
			return nil
		}
		var modes []string
		if o.path == "/metrics" {
			req, _, err := serve(t, "engine.metrics_ms", o.body, e.Metrics)
			if err != nil {
				return err
			}
			modes = req.Modes
		} else {
			req, _, err := serve(t, "engine.spectrum_ms", o.body, e.Spectrum)
			if err != nil {
				return err
			}
			modes = req.Modes
		}
		ms, err := engine.ParseModes(modes)
		if err != nil {
			return err
		}
		ladder, err := journey.NewLadder(ms...)
		if err != nil {
			return err
		}
		cur, _ := e.StreamSet(s.name)
		k := ckKey{o.stream, ladder.String()}
		start := time.Now()
		if ck := cks[lane][k]; ck != nil {
			if _, err := ck.WaitSpectrum(cur, 1, &t.sweeps); err != nil {
				return err
			}
			t.sweep("journey.advance_ms", start)
			return nil
		}
		_, ck, err := journey.WaitSpectrumCheckpointed(cur, ladder, 0, 1, 0, &t.sweeps)
		if err != nil {
			return err
		}
		t.sweep("journey.spectrum_ms", start)
		cks[lane][k] = ck
		return nil
	})
}
