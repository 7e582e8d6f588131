package quality

import (
	"math"
	"testing"
	"time"
)

func apScore(id int, resid, sto, margin, score float64) APScore {
	return APScore{
		APID:  id,
		Score: score,
		Inputs: APInputs{
			APID:        id,
			AoAResidRad: resid,
			STOMeanNs:   sto,
			Margin:      margin,
		},
	}
}

func TestDriftStableBaselineNoBreaches(t *testing.T) {
	d := newDriftDetector()
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		// Mild deterministic wobble around a stable operating point.
		wob := 0.001 * math.Sin(float64(i))
		if n := d.observe(apScore(1, 0.02+wob, 40+wob*100, 0.8+wob, 0.85), now); n != 0 {
			t.Fatalf("burst %d: %d breaches on a stable AP", i, n)
		}
		now = now.Add(time.Second)
	}
	if h := d.health(1); h < 0.8 {
		t.Fatalf("stable AP health = %.3f, want ≥ 0.8", h)
	}
}

func TestDriftStepChangeBreaches(t *testing.T) {
	d := newDriftDetector()
	now := time.Unix(0, 0)
	for i := 0; i < 50; i++ {
		wob := 0.001 * math.Sin(float64(i))
		d.observe(apScore(1, 0.02+wob, 40+wob*100, 0.8+wob, 0.85), now)
		now = now.Add(time.Second)
	}
	before := d.health(1)
	// The sanitization slope jumps 60 ns — a cable swap / clock step.
	breaches := 0
	for i := 0; i < 10; i++ {
		breaches += d.observe(apScore(1, 0.02, 100, 0.8, 0.85), now)
		now = now.Add(time.Second)
	}
	if breaches == 0 {
		t.Fatal("60 ns STO step produced no baseline breaches")
	}
	if after := d.health(1); after >= before {
		t.Fatalf("health did not drop on drift: before %.3f, after %.3f", before, after)
	}
	snap := d.snapshot()
	if len(snap) != 1 || snap[0].Metrics[MetricSTOSlope].Breaches == 0 {
		t.Fatalf("snapshot missing STO breaches: %+v", snap)
	}
}

func TestDriftWarmupSuppressesBreaches(t *testing.T) {
	d := newDriftDetector()
	now := time.Unix(0, 0)
	// Wildly varying values inside the warmup window must not breach.
	for i := 0; i < driftWarmup; i++ {
		if n := d.observe(apScore(1, float64(i)*0.3, float64(i*50), 0.1*float64(i), 0.5), now); n != 0 {
			t.Fatalf("breach during warmup burst %d", i)
		}
	}
}

func TestDriftChronicallyBadAPHasLowHealth(t *testing.T) {
	// An AP that is bad from burst one never breaches its own (bad)
	// baseline — health must still be low because it folds in the
	// absolute per-AP confidence score.
	d := newDriftDetector()
	now := time.Unix(0, 0)
	for i := 0; i < 50; i++ {
		d.observe(apScore(1, 0.4, 40, 0.1, 0.05), now)
		now = now.Add(time.Second)
	}
	if h := d.health(1); h > 0.2 {
		t.Fatalf("chronically bad AP health = %.3f, want ≤ 0.2", h)
	}
}

func TestDriftUnknownAPHealthy(t *testing.T) {
	d := newDriftDetector()
	if h := d.health(99); h != 1 {
		t.Fatalf("unknown AP health = %.3f, want 1", h)
	}
}

func TestDriftNaNObservableSkipped(t *testing.T) {
	d := newDriftDetector()
	now := time.Unix(0, 0)
	ap := apScore(1, 0.02, math.NaN(), 0.8, 0.85) // sanitize disabled
	for i := 0; i < 20; i++ {
		d.observe(ap, now)
	}
	snap := d.snapshot()
	if _, ok := snap[0].Metrics[MetricSTOSlope]; ok {
		t.Fatal("NaN STO slope grew a baseline")
	}
	if _, ok := snap[0].Metrics[MetricAoAResid]; !ok {
		t.Fatal("finite AoA residual baseline missing")
	}
}

func TestDriftSnapshotSorted(t *testing.T) {
	d := newDriftDetector()
	now := time.Unix(0, 0)
	for _, id := range []int{7, 2, 5} {
		d.observe(apScore(id, 0.02, 40, 0.8, 0.85), now)
	}
	snap := d.snapshot()
	if len(snap) != 3 || snap[0].APID != 2 || snap[1].APID != 5 || snap[2].APID != 7 {
		t.Fatalf("snapshot not sorted by AP ID: %+v", snap)
	}
}

func TestEWMAConverges(t *testing.T) {
	var e ewma
	for i := 0; i < 200; i++ {
		e.observe(10, 0.2, 0)
	}
	if math.Abs(e.mean-10) > 1e-9 {
		t.Fatalf("EWMA mean = %v, want 10", e.mean)
	}
	if e.varv > 1e-9 {
		t.Fatalf("EWMA variance on constant input = %v, want ~0", e.varv)
	}
	// MinSigma floors the denominator so the constant series does not
	// turn an epsilon step into an infinite z.
	z := e.observe(10.5, 0.2, 1)
	if math.Abs(z-0.5) > 1e-9 {
		t.Fatalf("z with floored sigma = %v, want 0.5", z)
	}
}
