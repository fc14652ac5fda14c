package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"time"

	"tvgwait/internal/engine"
	"tvgwait/internal/tvg"
)

// churn: a batch mix larger than the server's cache. A fixed warm head
// of exact requests, served once during set-up, takes 32% of the
// traffic and is answered from the row cache. The rest draws spec×seed
// pairs with a skew from a population whose contact sets total about
// three times churnCacheBytes and asks 2-mode /metrics, /spectrum and
// /simulate questions that never repeat: generation and CSR build, the
// engine byte budget's evictions and dtn floods dominate.
type churnWL struct {
	warmup []op
	ops    [][]op
}

const (
	// churnCacheBytes is the server's cache budget.
	churnCacheBytes = 24 << 20
	// The warm head takes 32% of the traffic: well below one half, so
	// p50_ms and p90_ms both measure the miss mode (the work churn is
	// about), and well above 0.1, so the hit path stays exercised. A run
	// whose share of requests the server answered from its row cache
	// leaves [warmMin, warmMax] fails.
	warmMin, warmMax = 0.22, 0.42
	// tailVariants is how many mode variants each tail row question
	// comes in (wait:1 to wait:10 as the bounded rung), so a member has
	// tailVariants times 100 new questions of each kind.
	tailVariants = 10
)

var (
	churnPairModes = []string{"nowait", "wait"}
	churnLadder    = []string{"nowait", "wait:2", "wait"}
)

func newChurn(cfg config) (*churnWL, error) {
	horizon, heads, population := tvg.Time(150), 6, 72
	sizes := []struct {
		nodes int
		birth float64
	}{{64, 0.01}, {96, 0.007}, {128, 0.005}}
	messages, maxOps := 16, min(int(cfg.window.Seconds()*800)+2000, 30000)
	if cfg.smoke {
		horizon, heads, population, messages = 40, 2, 8, 4
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &churnWL{}

	// The head: one question on each head graph, a 2-mode /metrics or a
	// /spectrum ladder in turn, asked at t0 = 0 in set-up and repeated
	// verbatim in the window. Each comes back about every 19 requests,
	// before the tail's churn evicts it.
	var head []op
	for i := 0; i < heads; i++ {
		g := graph{markov(128, 0.005, 0.5, horizon), rng.Int63()}
		if i%2 == 0 {
			head = append(head, metricsOp(g, churnPairModes, 0))
		} else {
			head = append(head, spectrumOp(g, churnLadder, 0))
		}
	}
	for i := range head {
		head[i].head = true
	}
	w.warmup = head

	// The tail population, drawn with a Zipf skew. Each member's row
	// questions of one kind come in a seeded order that never repeats:
	// every t0 of a seeded permutation with the first mode variant, then
	// every t0 with the second, and so on. The hottest member has enough
	// of them for the whole plan, so no draw is ever rejected and the
	// tail mix is the same in every part of the window.
	members := make([]graph, population)
	for i := range members {
		sz := sizes[i%len(sizes)]
		members[i] = graph{markov(sz.nodes, sz.birth, 0.5, horizon), rng.Int63()}
	}
	zipf := rand.NewZipf(rng, 1.1, 2, uint64(population-1))
	t0s := int(horizon) * 2 / 3
	var variants [2][][]string // per kind: 2-mode /metrics pairs, /spectrum ladders
	for d := 1; d <= tailVariants; d++ {
		bounded := "wait:" + strconv.Itoa(d)
		variants[0] = append(variants[0], []string{"nowait", bounded})
		variants[1] = append(variants[1], []string{"nowait", bounded, "wait"})
	}
	perms := make([][2][]int, population)
	for i := range perms {
		perms[i] = [2][]int{rng.Perm(t0s), rng.Perm(t0s)}
	}
	asked := make([][2]int, population)
	// tail draws a member for question q: 0 a 2-mode /metrics, 1 a
	// /spectrum ladder, 2 a /simulate flood. It reports false if the
	// member has no new row question left.
	tail := func(q int) (op, bool) {
		m := int(zipf.Uint64())
		g := members[m]
		if q == 2 {
			return simulateOp(g, churnPairModes, messages), true
		}
		i := asked[m][q]
		if i == t0s*tailVariants {
			return op{}, false
		}
		asked[m][q]++
		modes, t0 := variants[q][i/t0s], tvg.Time(perms[m][q][i%t0s])
		if q == 0 {
			return metricsOp(g, modes, t0), true
		}
		return spectrumOp(g, modes, t0), true
	}

	// Blocks of 25 requests carry exactly 8 head requests (32%) and
	// seven /metrics, six /spectrum and four /simulate tail requests, so
	// the mix is fixed by construction, not by the draw. The head
	// requests take turns. The plan would end early if a member ran out
	// of new row questions; at these sizes none does.
	const headPerBlock = 8
	var all []op
plan:
	for next := 0; len(all) < maxOps; {
		blk := make([]op, 0, 25)
		for i := 0; i < headPerBlock; i++ {
			blk = append(blk, head[next%len(head)])
			next++
		}
		for _, q := range [...]int{0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2} {
			o, ok := tail(q)
			if !ok {
				break plan
			}
			blk = append(blk, o)
		}
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		all = append(all, blk...)
	}
	w.ops = deal(all, clients())
	return w, nil
}

func (w *churnWL) args(string) []string {
	return []string{"-workers", "1", "-inflight", "4", "-cache-bytes", strconv.Itoa(churnCacheBytes)}
}

func (w *churnWL) seededDir() string                 { return "" }
func (w *churnWL) setup() []op                       { return w.warmup }
func (w *churnWL) lanes() [][]op                     { return w.ops }
func (w *churnWL) probe(*http.Client, *server) error { return nil }

func (w *churnWL) verify(_ *http.Client, _ *server, outs [][]outcome, delta map[string]float64) error {
	// The mixture guard: the share of requests the server answered from
	// its row cache stays in the band, and every tail row question misses
	// it. The head's share of the requests is fixed by the plan; a head
	// entry the byte budget evicted under churn costs one rebuild, so the
	// served share can sit a little below it.
	var done, heads, tailRows int
	first := make(map[string][]byte) // one answer per distinct head request
	tailLanes := make([][]op, len(outs))
	tailOuts := make([][]outcome, len(outs))
	for i, lane := range outs {
		for j, res := range lane {
			o := &w.ops[i][j]
			done++
			if !o.head {
				if o.kind != opSimulate {
					tailRows++
				}
				tailLanes[i] = append(tailLanes[i], *o)
				tailOuts[i] = append(tailOuts[i], res)
				continue
			}
			heads++
			if !res.ok() {
				continue
			}
			if prev, ok := first[string(o.body)]; !ok {
				first[string(o.body)] = res.body
			} else if !bytes.Equal(prev, res.body) {
				return fmt.Errorf("head request %s answered differently on repeat", o.body)
			}
		}
	}
	share := float64(heads) / float64(max(done, 1))
	warm := delta[`tvg_engine_cache_hits_total{cache="spectra"}`] / float64(max(done, 1))
	fmt.Fprintf(os.Stderr, "e2ebench: churn head share %.3f, served warm %.3f (%d requests)\n", share, warm, done)
	if warm < warmMin || warm > warmMax {
		return fmt.Errorf("served warm share %.3f outside [%.2f, %.2f]", warm, warmMin, warmMax)
	}
	if misses := delta[`tvg_engine_cache_misses_total{cache="spectra"}`]; int(misses) < tailRows {
		return fmt.Errorf("%v row-cache misses for %d tail row questions: a tail question repeated", misses, tailRows)
	}
	var headLane []op
	var headOuts []outcome
	for _, h := range w.warmup {
		if body, ok := first[string(h.body)]; ok {
			headLane = append(headLane, h)
			headOuts = append(headOuts, outcome{status: http.StatusOK, body: body})
		}
	}
	return checkOutcomes(append(tailLanes, headLane), append(tailOuts, headOuts))
}

func (w *churnWL) replay(t *tracer, done []int, window time.Duration) error {
	r := newGraphReplay(t, engine.Options{Workers: 1, MaxCacheBytes: churnCacheBytes})
	defer r.eng.Close()
	if err := r.warm(w.warmup); err != nil {
		return err
	}
	return replayLanes(t, w.ops, done, window, func(_ int, o *op) error { return r.op(o) })
}
