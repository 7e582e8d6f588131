package main

import (
	"fmt"
	"runtime"
	"time"

	"spotfi"
	"spotfi/internal/obs"
	"spotfi/internal/obs/trace"
)

// outcome is one target's reference fix: what its first call produced,
// which every later call on the same target must repeat.
type outcome struct {
	loc spotfi.Location
	err error
}

// runClosed drives a closed-loop workload: one caller localizes the
// targets in turn, each call starting when the previous one returns.
func runClosed(w *workload, o runOpts) (*result, violations, error) {
	reg := obs.NewRegistry()
	pm := spotfi.NewPipelineMetrics(reg)
	var (
		in     *closedInputs
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		x, err := buildClosed(w, o.seed, pm)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		in = x
	}
	verifiers := make([]*verifier, len(in.scenes))
	for i, sc := range in.scenes {
		v, err := newVerifier(sc.cfg, sc.aps)
		if err != nil {
			return nil, nil, err
		}
		verifiers[i] = v
	}

	// The timed loop cycles through the targets. Its first cycle is the
	// reference: every later call on a target must reproduce it bit for
	// bit, and the error percentiles come from it, so they repeat exactly
	// for a seed. A cycle the window cut short is finished untimed.
	var viol violations
	tracer := trace.New(trace.Config{SampleEvery: 1, Capacity: 8})
	rec := newRecorder(o.traced)
	lay := newLayers()
	ref := make([]outcome, len(in.targets))
	var (
		lat                  []float64
		pairUntraced, pairTr time.Duration
		fixes                int
	)
	call := func(n int) (spotfi.Location, error) {
		t := in.targets[n%len(in.targets)]
		loc, _, _, err := in.scenes[t.scene].loc.LocalizeBursts(t.bursts)
		return loc, err
	}
	for n := 0; n < warmupFixes; n++ {
		call(n)
	}
	// Collect the discarded setups' garbage, so the heap peak is the
	// workload's own.
	runtime.GC()
	hs := startHeapSampler()
	allocs0 := heapAllocs()
	win := newWindows()
	deadline := time.Now().Add(o.seconds)
	n := 0
	for ; time.Now().Before(deadline); n++ {
		i := n % len(in.targets)
		t0 := time.Now()
		loc, err := call(n)
		d := time.Since(t0)
		lat = append(lat, float64(d)/1e6)
		fixes++
		win.observe(t0.Add(d), int64(fixes), int64(fixes))
		if n < len(in.targets) {
			ref[i] = outcome{loc: loc, err: err}
		} else if !sameOutcome(loc, err, ref[i]) {
			viol.addf("target %d call %d: fix (%v, %v, %v) differs from the first call's (%v, %v, %v)",
				i, n, loc.X, loc.Y, err, ref[i].loc.X, ref[i].loc.Y, ref[i].err)
		}
		if o.traced {
			// Pair every untraced call with a traced call on the same
			// target; tracing overhead is the ratio of their sums.
			pairUntraced += d
			_, d := tracedFix(in, i, n, tracer, rec, lay, verifiers, &viol, ref[i])
			pairTr += d
		}
	}
	allocs := heapAllocs() - allocs0
	peak := hs.stop()
	for ; n < len(in.targets); n++ {
		loc, err := call(n)
		ref[n] = outcome{loc: loc, err: err}
	}

	var errs []float64
	failed := 0
	for i, t := range in.targets {
		sc := &in.scenes[t.scene]
		if ref[i].err != nil {
			failed++
			continue
		}
		if !validFix(ref[i].loc.Point, sc.dep.Bounds) {
			viol.addf("target %d: fix (%v, %v) is not finite or outside %+v", i, ref[i].loc.X, ref[i].loc.Y, sc.dep.Bounds)
		}
		errs = append(errs, ref[i].loc.Point.Dist(t.truth))
	}
	if failed > 0 {
		viol.addf("%d of %d targets failed to localize", failed, len(in.targets))
	}
	// Re-derive a fixed sample of the reference fixes after timing, so
	// the checks cost no measured time. The sample's traces give the work
	// counts, which therefore repeat exactly for a seed.
	work := newLayers()
	for i := 0; i < len(in.targets); i += checkEvery {
		if td, _ := tracedFix(in, i, i, tracer, nil, nil, verifiers, &viol, ref[i]); td != nil {
			pipelineLayers(work, td)
		}
	}

	res := &result{Attempted: len(in.targets), Failed: failed}
	if o.traced {
		vals := make(map[string]float64)
		for _, m := range perLayerNames {
			if m.unit == "count" || m.unit == "ratio" {
				vals[m.name] = work.mean(m.name)
			} else {
				vals[m.name] = lay.mean(m.name)
			}
		}
		vals["music.fastpath_accept_ratio"] = ratio(work.sum["fastpath.accepted"], work.n["fastpath.accepted"])
		vals["spotfi.aps_skipped"] = work.sum["spotfi.aps_skipped"]
		vals["spotfi.err_m_p90"] = quantile(errs, 0.9)
		vals["trace.overhead_ratio"] = ratio(float64(pairTr), float64(pairUntraced))
		res.Metrics = perLayerMetrics(vals)
		if err := rec.write(spanPath(w.name, o.seed)); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		return res, viol, nil
	}
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"fix_rate":        {median(win.rate), "1/s"},
		"fix_ms_p50":      {quantile(lat, 0.5), "ms"},
		"fix_ms_p90":      {quantile(lat, 0.9), "ms"},
		"cpu_ms_per_fix":  {median(win.cpuPerFix), "ms"},
		"allocs_per_fix":  {float64(allocs) / float64(fixes), "count"},
		"heap_peak_mb":    {float64(peak) / (1 << 20), "MB"},
		"err_m_p50":       {quantile(errs, 0.5), "m"},
		"delivered_ratio": {float64(len(in.targets)-failed) / float64(len(in.targets)), "ratio"},
	}
	return res, viol, nil
}

// warmupFixes are localized before timing starts, so estimator pools and
// caches are filled.
const warmupFixes = 8

// checkEvery spaces the reference fixes an untraced run re-derives.
const checkEvery = 8

// tracedFix localizes target i once more with the pipeline's tracer on,
// requires the same fix as the reference, and re-derives it through the
// layers' public functions. With rec and lay set (a traced run) it records
// the spans and folds their times into the per-layer means. It returns the
// fix's trace and how long the traced call took.
func tracedFix(in *closedInputs, i, fixID int, tracer *trace.Tracer, rec *recorder, lay *layers,
	verifiers []*verifier, viol *violations, ref outcome) (*trace.TraceData, time.Duration) {
	t := in.targets[i]
	sc := &in.scenes[t.scene]
	tr := tracer.Start(trace.StageBurst)
	t0 := time.Now()
	loc, reps, _, err := sc.loc.LocalizeBurstsTraced(t.bursts, tr)
	t1 := time.Now()
	tr.Finish()
	if !sameOutcome(loc, err, ref) {
		viol.addf("target %d: traced fix (%v, %v, %v) differs from the untraced one (%v, %v, %v)",
			i, loc.X, loc.Y, err, ref.loc.X, ref.loc.Y, ref.err)
	}
	if err != nil {
		return nil, t1.Sub(t0)
	}
	td := findTrace(tracer, tr.ID())
	root := rec.add("spotfi.localize", fixID, -1, t0, t1)
	rec.importTrace(td, fixID, root)
	if lay != nil {
		lay.add("spotfi.localize_ms", float64(t1.Sub(t0))/1e6)
		pipelineLayers(lay, td)
	}
	verifiers[t.scene].fix(loc, reps, estimatorKinds(td), t.bursts, viol, lay, rec, fixID, root)
	return td, t1.Sub(t0)
}

// sameOutcome reports whether a repeated call reproduced the reference
// fix bit for bit.
func sameOutcome(loc spotfi.Location, err error, ref outcome) bool {
	if (err != nil) != (ref.err != nil) {
		return false
	}
	return sameFloat(loc.X, ref.loc.X) && sameFloat(loc.Y, ref.loc.Y) && sameFloat(loc.Confidence, ref.loc.Confidence)
}
