// Command e2ebench is tvgwait's end-to-end benchmark. Each run starts a
// fresh tvgserve process, sets it up for one named workload, drives it
// for a fixed window with a closed loop of keep-alive clients, checks
// every answer against the library in-process, and prints one JSON
// object as the last line of standard output.
//
// With -trace 1 the run also replays the same seeded request sequence
// in-process, timing the calls into each layer's public functions, and
// scrapes the server's /debug/metrics counters, so every end-to-end
// number breaks down by module (see README.md).
//
// The driver is normally started through run.sh, which builds both
// binaries from the checkout:
//
//	bash e2ebench/run.sh --workload churn --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	fs := flag.NewFlagSet("e2ebench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: churn or ingest")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	server := fs.String("server", "", "path of a built tvgserve binary")
	work := fs.String("work", ".bench_build", "directory for the run's data directories")
	fs.Parse(os.Args[1:])

	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		server:   *server,
		work:     *work,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	server   string
	work     string
	// smoke selects tiny sizes, for the smoke test: a run takes seconds
	// and its figures compare with nothing.
	smoke bool
}

// clients is the closed loop's width: one keep-alive connection per
// core, at most two.
func clients() int {
	return min(2, runtime.NumCPU())
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
