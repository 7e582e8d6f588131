// Command spotfi-bench regenerates every table and figure of the paper's
// evaluation (Sec. 4) on the simulated testbed and prints the series the
// paper reports. Run with -quick for a reduced-scale smoke pass.
//
// Beyond the human-readable tables, the harness maintains a
// machine-readable accuracy/perf fingerprint: -json writes
// BENCH_<runid>.json with per-figure median/p90 error, wall time, and
// heap-allocation deltas; -compare diffs the run against a committed
// baseline (BENCH_baseline.json) and exits non-zero on any regression
// beyond tolerance — the CI bench-baseline gate. With -only, -compare
// gates just that figure. Regenerate the committed baseline with
// -write-baseline (a full run, never with -only) after an intentional
// accuracy or cost change.
//
// Usage:
//
//	spotfi-bench [-quick] [-seed N] [-packets N] [-targets N] [-only figID]
//	    [-json] [-runid ID] [-compare BENCH_baseline.json]
//	    [-write-baseline BENCH_baseline.json] [-results out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"spotfi/internal/experiments"
	"spotfi/internal/music"
	"spotfi/internal/testbed"
	"spotfi/internal/viz"
)

// figures lists every experiment in run order; -only and its help text
// derive from it.
var figures = []struct {
	id string
	fn func(experiments.Options) (*experiments.Result, error)
}{
	{"fig5ab", experiments.Fig5Sanitization},
	{"fig5c", experiments.Fig5cClusters},
	{"fig7a", experiments.Fig7aOffice},
	{"fig7b", experiments.Fig7bNLoS},
	{"fig7c", experiments.Fig7cCorridor},
	{"fig8a", experiments.Fig8aAoA},
	{"fig8b", experiments.Fig8bSelection},
	{"fig9a", experiments.Fig9aDensity},
	{"fig9b", experiments.Fig9bPackets},
}

func figureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// figureFn returns the experiment registered under id, or nil.
func figureFn(id string) func(experiments.Options) (*experiments.Result, error) {
	for _, f := range figures {
		if f.id == id {
			return f.fn
		}
	}
	return nil
}

// writeSVG renders a figure's series as a CDF plot SVG next to the text
// output.
func writeSVG(dir string, r *experiments.Result) error {
	labels := make([]string, 0, len(r.Series))
	samples := make([][]float64, 0, len(r.Series))
	for _, s := range r.Series {
		if len(s.Values) < 2 {
			continue // single-value series (e.g. fig5c spreads) have no CDF
		}
		labels = append(labels, s.Label)
		samples = append(samples, s.Values)
	}
	if len(labels) == 0 {
		return nil
	}
	plot, err := viz.CDFPlot(fmt.Sprintf("%s: %s", r.ID, r.Title), r.Unit, labels, samples)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.ID+".svg"), []byte(plot.SVG()), 0o644)
}

func main() {
	quick := flag.Bool("quick", false, "reduced-scale run (fewer targets and packets)")
	seed := flag.Int64("seed", 1, "experiment seed")
	packets := flag.Int("packets", 0, "packets per burst (0 = paper default of 40)")
	targets := flag.Int("targets", 0, "max targets per deployment (0 = all)")
	repeats := flag.Int("repeats", 1, "independently-seeded deployments to pool per experiment")
	only := flag.String("only", "", "run a single figure ("+strings.Join(figureIDs(), ", ")+")")
	svgDir := flag.String("svg", "", "also write one SVG figure per experiment into this directory")
	resultsOut := flag.String("results", "", "also write the raw result series as JSON to this file")
	jsonOut := flag.Bool("json", false, "write the machine-readable baseline to BENCH_<runid>.json")
	runID := flag.String("runid", "", "run identifier for -json (default: UTC timestamp)")
	comparePath := flag.String("compare", "", "compare this run against a baseline file; exit 1 on regression")
	writeBaseline := flag.String("write-baseline", "", "write the machine-readable baseline to this exact path")
	flag.Parse()
	if *only != "" && *writeBaseline != "" {
		// The committed baseline gates every figure; a partial run would
		// silently drop the others from it.
		fmt.Fprintln(os.Stderr, "spotfi-bench: -write-baseline needs a full run; drop -only")
		os.Exit(2)
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "spotfi-bench:", err)
			os.Exit(1)
		}
		// Fig. 6 equivalents: the deployment maps themselves.
		for _, d := range []*testbed.Deployment{
			testbed.Office(*seed), testbed.HighNLoS(*seed), testbed.Corridor(*seed),
		} {
			svg, err := d.FloorPlan().SVG()
			if err != nil {
				fmt.Fprintln(os.Stderr, "spotfi-bench:", err)
				os.Exit(1)
			}
			path := filepath.Join(*svgDir, "testbed-"+d.Name+".svg")
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "spotfi-bench:", err)
				os.Exit(1)
			}
		}
	}

	opts := experiments.Options{Seed: *seed, Packets: *packets, MaxTargets: *targets, Repeats: *repeats}
	if *quick {
		if opts.Packets == 0 {
			opts.Packets = 10
		}
		if opts.MaxTargets == 0 {
			opts.MaxTargets = 8
		}
	}

	id := *runID
	if id == "" {
		id = time.Now().UTC().Format("20060102T150405Z")
	}
	baseline := experiments.NewBaseline(id, time.Now().UTC().Format(time.RFC3339), opts)

	var collected []*experiments.Result
	run := func(id string) error {
		fn := figureFn(id)
		if fn == nil {
			return fmt.Errorf("unknown figure %q", id)
		}
		// Allocation deltas as a machine-independent cost proxy alongside
		// the machine-dependent wall time.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		r, err := fn(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		baseline.AddFigure(r, wall.Seconds(),
			after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs)
		collected = append(collected, r)
		fmt.Print(r.Render())
		fmt.Printf("(%s in %v)\n\n", id, wall.Round(time.Millisecond))
		if *svgDir != "" {
			if err := writeSVG(*svgDir, r); err != nil {
				return fmt.Errorf("%s: svg: %w", id, err)
			}
		}
		return nil
	}

	if *only != "" {
		if err := run(*only); err != nil {
			fmt.Fprintln(os.Stderr, "spotfi-bench:", err)
			os.Exit(1)
		}
	} else {
		for _, f := range figures {
			if err := run(f.id); err != nil {
				fmt.Fprintln(os.Stderr, "spotfi-bench:", err)
				os.Exit(1)
			}
		}
	}
	// One steering table per (grid, array, band) should serve the whole
	// run; a miss count tracking the figure count would mean the cache key
	// is broken.
	hits, misses, entries := music.SteeringCacheStats()
	fmt.Printf("steering cache: %d hits, %d misses, %d table(s) resident\n\n", hits, misses, entries)

	if *resultsOut != "" {
		data, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "spotfi-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*resultsOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "spotfi-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *resultsOut)
	}
	for _, path := range baselinePaths(*jsonOut, id, *writeBaseline) {
		if err := baseline.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "spotfi-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *comparePath != "" {
		base, err := experiments.LoadBaseline(*comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spotfi-bench:", err)
			os.Exit(1)
		}
		if *only != "" {
			base = base.Only(*only)
		}
		violations := experiments.Compare(base, baseline, experiments.DefaultTolerance())
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "spotfi-bench: %d regression(s) vs %s:\n", len(violations), *comparePath)
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "  -", v)
			}
			os.Exit(1)
		}
		fmt.Printf("baseline check passed: no regressions vs %s\n", *comparePath)
	}
}

// baselinePaths resolves where the machine-readable baseline goes: the
// conventional BENCH_<runid>.json with -json, an explicit path with
// -write-baseline, or both.
func baselinePaths(jsonOut bool, runID, explicit string) []string {
	var out []string
	if jsonOut {
		out = append(out, "BENCH_"+runID+".json")
	}
	if explicit != "" {
		out = append(out, explicit)
	}
	return out
}
