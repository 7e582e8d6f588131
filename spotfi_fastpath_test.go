package spotfi

import (
	"reflect"
	"strings"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/obs"
	"spotfi/internal/obs/trace"
	"spotfi/internal/testbed"
)

// scrapeRegistry renders r in Prometheus text format and parses it back.
func scrapeRegistry(t *testing.T, r *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, b.String())
}

// officeBursts collects one burst per AP from an Office deployment.
func officeBursts(t *testing.T, d *testbed.Deployment, target, packets int) map[int][]*csi.Packet {
	t.Helper()
	bursts := make(map[int][]*csi.Packet)
	for a := range d.APs {
		b, err := d.Burst(a, target, packets)
		if err != nil {
			t.Fatal(err)
		}
		bursts[a] = b
	}
	return bursts
}

// TestFastPathCountersPartition checks that with the ESPRIT fast path
// enabled, every burst either lands in the accepted counter or the
// fallback counter — never both, never neither — and that the pipeline
// still produces a usable location. The AP spans' "estimator" labels must
// partition the same way: perfbench's verifier picks the reports it
// re-derives bit for bit by the MUSIC label, so a drifted label would
// leave it checking nothing.
func TestFastPathCountersPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d := testbed.Office(11)
	reg := obs.NewRegistry()
	cfg := DefaultConfig(d.Bounds)
	cfg.Workers = 2
	cfg.FastPath = true
	cfg.Metrics = NewPipelineMetrics(reg)
	loc, err := New(cfg, deploymentAPs(d))
	if err != nil {
		t.Fatal(err)
	}
	// Target 8 splits its six APs between both estimators, so each label
	// is exercised.
	bursts := officeBursts(t, d, 8, 6)
	tracer := trace.New(trace.Config{SampleEvery: 1})
	tr := tracer.Start(trace.StageBurst)
	p, reports, skipped, err := loc.LocalizeBurstsTraced(bursts, tr)
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped APs with fast path on: %v", skipped)
	}
	if len(reports) != len(bursts) {
		t.Fatalf("got %d reports for %d bursts", len(reports), len(bursts))
	}
	if !d.Bounds.Contains(p.Point) {
		t.Fatalf("estimate %v outside bounds", p.Point)
	}
	acc := cfg.Metrics.FastPathAccepted.Value()
	fb := cfg.Metrics.FastPathFallbacks.Value()
	if acc+fb != uint64(len(bursts)) {
		t.Fatalf("accepted(%d)+fallback(%d) != bursts(%d)", acc, fb, len(bursts))
	}
	if acc == 0 || fb == 0 {
		t.Fatalf("accepted %d, fallbacks %d: want both estimators to serve some AP", acc, fb)
	}
	if got := cfg.Metrics.BurstsProcessed.Value(); got != uint64(len(bursts)) {
		t.Fatalf("BurstsProcessed = %d, want %d", got, len(bursts))
	}

	recent := tracer.Recent()
	if len(recent) != 1 {
		t.Fatalf("got %d traces, want 1", len(recent))
	}
	labels := make(map[string]uint64)
	for _, sd := range recent[0].Spans {
		if sd.Name == trace.StageAP {
			est, _ := sd.Attrs["estimator"].(string)
			labels[est]++
		}
	}
	if EstimatorMUSIC.String() != "music" || EstimatorESPRIT.String() != "esprit" {
		t.Fatalf("estimator labels %q/%q changed; span attributes must stay music/esprit",
			EstimatorMUSIC, EstimatorESPRIT)
	}
	want := map[string]uint64{
		EstimatorESPRIT.String(): acc,
		EstimatorMUSIC.String():  fb,
	}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("AP span estimator labels = %v, want %v", labels, want)
	}
}

// TestFastPathFallbackMatchesDisabled checks that a burst the fast path
// hands back to MUSIC gets bitwise the report a fast-path-disabled
// localizer gives it: the fallback re-estimates from the same prepped CSI,
// so trying ESPRIT first must not perturb the MUSIC result. Target 8 of
// this deployment fails the gates on some APs and clears them on others.
func TestFastPathFallbackMatchesDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d := testbed.Office(11)
	bursts := officeBursts(t, d, 8, 6)

	mkLoc := func(fastPath bool) (*Localizer, *PipelineMetrics) {
		cfg := DefaultConfig(d.Bounds)
		cfg.Workers = 2
		cfg.FastPath = fastPath
		cfg.Metrics = NewPipelineMetrics(obs.NewRegistry())
		loc, err := New(cfg, deploymentAPs(d))
		if err != nil {
			t.Fatal(err)
		}
		return loc, cfg.Metrics
	}
	fast, m := mkLoc(true)
	plain, _ := mkLoc(false)

	fallbacks := 0
	for a := range d.APs {
		before := m.FastPathFallbacks.Value()
		rFast, err := fast.ProcessBurstTraced(a, bursts[a], nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.FastPathFallbacks.Value() == before {
			continue
		}
		fallbacks++
		rPlain, err := plain.ProcessBurstTraced(a, bursts[a], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rFast, rPlain) {
			t.Fatalf("AP %d: fallback report differs from the fast-path-disabled report", a)
		}
	}
	if fallbacks == 0 {
		t.Fatal("no burst fell back to MUSIC, so nothing was compared")
	}
}

// TestFastPathDeterministic runs the fast-path pipeline twice over the
// same bursts; the gate decisions and results must be bitwise stable.
func TestFastPathDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d := testbed.Office(11)
	bursts := officeBursts(t, d, 1, 6)
	run := func() (Location, []*APReport) {
		cfg := DefaultConfig(d.Bounds)
		cfg.Workers = 2
		cfg.FastPath = true
		loc, err := New(cfg, deploymentAPs(d))
		if err != nil {
			t.Fatal(err)
		}
		p, reports, _, err := loc.LocalizeBursts(bursts)
		if err != nil {
			t.Fatal(err)
		}
		return p, reports
	}
	p1, r1 := run()
	p2, r2 := run()
	if p1 != p2 {
		t.Fatalf("same input, different estimates: %v vs %v", p1, p2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("fast-path reports not deterministic")
	}
}

// TestSteeringCacheMetricsRegister exercises RegisterSteeringCacheMetrics:
// the three gauges must appear in a scrape and reflect a cache that has at
// least served this process's estimators.
func TestSteeringCacheMetricsRegister(t *testing.T) {
	d := testbed.Office(11)
	cfg := DefaultConfig(d.Bounds)
	if _, err := New(cfg, deploymentAPs(d)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RegisterSteeringCacheMetrics(reg)
	got := scrapeRegistry(t, reg)
	entries, ok := got["spotfi_steering_cache_entries"]
	if !ok {
		t.Fatal("spotfi_steering_cache_entries not exported")
	}
	if entries < 1 {
		t.Fatalf("cache entries = %v, want >= 1 after building a localizer", entries)
	}
	if _, ok := got["spotfi_steering_cache_hits"]; !ok {
		t.Fatal("spotfi_steering_cache_hits not exported")
	}
	if _, ok := got["spotfi_steering_cache_misses"]; !ok {
		t.Fatal("spotfi_steering_cache_misses not exported")
	}
}
