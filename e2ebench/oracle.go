package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"tvgwait/internal/engine"
	"tvgwait/internal/journey"
	"tvgwait/internal/tvg"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// newOracleEngine returns the in-process engine the oracle regenerates
// contact sets with: same generators as the server, no byte budget.
func newOracleEngine() *engine.Engine {
	return engine.New(engine.Options{Workers: 1, CacheSize: 1 << 12})
}

// checkRows recomputes each mode row's connectivity, reachable pairs and
// diameter with a single-mode all-pairs sweep on c. Spectrum rungs are
// checked the same way, so the wait-spectrum kernel the server uses for
// ladders is checked against the independent per-mode kernel.
func checkRows(c *tvg.ContactSet, t0 tvg.Time, rows []engine.ModeMetrics) error {
	if len(rows) == 0 {
		return fmt.Errorf("no mode rows")
	}
	for _, r := range rows {
		mode, err := engine.ParseMode(r.Mode)
		if err != nil {
			return err
		}
		m := journey.AllForemostParallel(c, mode, t0, 1)
		diam, ok := m.Diameter()
		if !ok {
			diam = -1
		}
		if r.Connected != m.Connected() || r.ReachablePairs != m.ReachablePairs() || r.Diameter != diam {
			return fmt.Errorf("mode %s at t0=%d: server says connected=%v pairs=%d diameter=%d, oracle says %v, %d, %d",
				r.Mode, t0, r.Connected, r.ReachablePairs, r.Diameter, m.Connected(), m.ReachablePairs(), diam)
		}
	}
	return nil
}

// parallel runs fn(0..n-1) on every core and returns the first error by
// index.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
