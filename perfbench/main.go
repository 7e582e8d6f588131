// Command perfbench is the SpotFi benchmark: it runs one named workload
// in-process for a fixed time, checks every output, and prints one JSON
// line of metrics.
//
//	perfbench --workload office-full --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	office-full        closed loop, one caller, testbed.Office targets on
//	                   the full MUSIC rung
//	corridor-fastpath  closed loop, one caller, testbed.Corridor targets on
//	                   the ESPRIT fast-path rung
//	serve-surge        open loop: pre-encoded loadgen frames through wire
//	                   decode, burst assembly, admission control, the
//	                   three-rung ladder and the fix feed, at about 3× the
//	                   serving capacity
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every layer call and prints the per-layer
// metrics instead, writing the spans under .bench_build/spans/. Any
// correctness violation exits with status 1 before a result is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"spotfi/internal/testbed"
)

// workload names one benchmark input set and how it is driven.
type workload struct {
	name string
	// rung is the spotfi.BuildLadder index of the closed-loop localizer.
	rung int
	// scenes is how many independently seeded deployments a closed-loop
	// run pools.
	scenes int
	// deployment builds a closed-loop deployment; nil for serve-surge.
	deployment func(seed int64) *testbed.Deployment
}

var workloads = []*workload{
	{name: "office-full", rung: 0, scenes: 12, deployment: testbed.Office},
	{name: "corridor-fastpath", rung: 1, scenes: 14, deployment: testbed.Corridor},
	{name: "serve-surge"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median.
const setupRepeats = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// violations collects correctness failures; any one fails the run.
type violations []string

func (v *violations) addf(format string, args ...any) {
	if len(*v) < 20 {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload: office-full, corridor-fastpath or serve-surge")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured run length in seconds")
	traced := flag.Int("trace", 0, "1 records per-layer spans and prints per-layer metrics")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload office-full|corridor-fastpath|serve-surge, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)

	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1}
	var (
		res  *result
		viol violations
		err  error
	)
	if w.deployment != nil {
		res, viol, err = runClosed(w, opts)
	} else {
		res, viol, err = runSurge(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(viol) > 0 {
		for _, v := range viol {
			fmt.Fprintln(os.Stderr, "perfbench: correctness:", v)
		}
		os.Exit(1)
	}
	res.Correct = true
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOpts are the command-line settings every workload runner takes.
type runOpts struct {
	seed    int64
	seconds time.Duration
	traced  bool
}
