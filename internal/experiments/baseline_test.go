package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

func baselinePair() (*Baseline, *Baseline) {
	opts := Options{Seed: 1, Packets: 10, MaxTargets: 8, Repeats: 1}
	mk := func(runID string) *Baseline {
		b := NewBaseline(runID, "2026-08-05T00:00:00Z", opts)
		b.AddFigure(&Result{
			ID: "fig7a",
			Series: []Series{
				{Label: "spotfi", Values: []float64{0.2, 0.4, 0.6, 0.8}},
				{Label: "arraytrack", Values: []float64{1.0, 2.0, 3.0, 4.0}},
			},
		}, 2.0, 1_000_000, 10_000)
		return b
	}
	return mk("base"), mk("cur")
}

func TestCompareIdenticalPasses(t *testing.T) {
	base, cur := baselinePair()
	if v := Compare(base, cur, Tolerance{}); len(v) != 0 {
		t.Fatalf("identical baselines flagged: %v", v)
	}
}

func TestCompareFlagsAccuracyRegression(t *testing.T) {
	base, cur := baselinePair()
	fig := cur.Figures["fig7a"]
	s := fig.Series["spotfi"]
	s.Median *= 2 // well past 25% rel + 5 cm abs
	fig.Series["spotfi"] = s
	cur.Figures["fig7a"] = fig
	v := Compare(base, cur, Tolerance{})
	if len(v) != 1 || !strings.Contains(v[0], "fig7a/spotfi: median") {
		t.Fatalf("violations = %v", v)
	}
}

func TestCompareToleratesSlackAndImprovement(t *testing.T) {
	base, cur := baselinePair()
	fig := cur.Figures["fig7a"]
	s := fig.Series["spotfi"]
	s.Median += 0.04 // within the 5 cm absolute floor
	s.P90 -= 0.5     // improvements never fail
	fig.Series["spotfi"] = s
	cur.Figures["fig7a"] = fig
	if v := Compare(base, cur, Tolerance{}); len(v) != 0 {
		t.Fatalf("in-tolerance drift flagged: %v", v)
	}
}

func TestCompareFlagsWallAndAllocBlowups(t *testing.T) {
	base, cur := baselinePair()
	fig := cur.Figures["fig7a"]
	fig.WallSeconds = 100 // 50× baseline
	fig.AllocBytes = 100_000_000
	cur.Figures["fig7a"] = fig
	v := Compare(base, cur, Tolerance{})
	if len(v) != 2 {
		t.Fatalf("violations = %v, want wall + alloc", v)
	}
}

func TestCompareFlagsMissingFigureAndSeries(t *testing.T) {
	base, cur := baselinePair()
	delete(cur.Figures, "fig7a")
	if v := Compare(base, cur, Tolerance{}); len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("violations = %v", v)
	}

	base2, cur2 := baselinePair()
	fig := cur2.Figures["fig7a"]
	delete(fig.Series, "arraytrack")
	cur2.Figures["fig7a"] = fig
	if v := Compare(base2, cur2, Tolerance{}); len(v) != 1 || !strings.Contains(v[0], "arraytrack: series missing") {
		t.Fatalf("violations = %v", v)
	}

	// The other direction: a figure or series the baseline lacks would
	// otherwise ship without any gate.
	base3, cur3 := baselinePair()
	cur3.Figures["fig10"] = cur3.Figures["fig7a"]
	if v := Compare(base3, cur3, Tolerance{}); len(v) != 1 || !strings.Contains(v[0], "fig10: not in baseline") ||
		!strings.Contains(v[0], "regenerate the baseline") {
		t.Fatalf("violations = %v", v)
	}

	base4, cur4 := baselinePair()
	fig4 := cur4.Figures["fig7a"]
	fig4.Series["oracle"] = fig4.Series["spotfi"]
	cur4.Figures["fig7a"] = fig4
	if v := Compare(base4, cur4, Tolerance{}); len(v) != 1 || !strings.Contains(v[0], "fig7a/oracle: series not in baseline") ||
		!strings.Contains(v[0], "regenerate the baseline") {
		t.Fatalf("violations = %v", v)
	}
}

func TestCompareOnlyGatesOneFigure(t *testing.T) {
	base, cur := baselinePair()
	base.AddFigure(&Result{
		ID:     "fig8b",
		Series: []Series{{Label: "spotfi", Values: []float64{1, 2, 3}}},
	}, 1.0, 500_000, 5_000)

	// A full comparison stays strict: the figure the run skipped is lost
	// coverage.
	if v := Compare(base, cur, Tolerance{}); len(v) != 1 || !strings.Contains(v[0], "fig8b: missing") {
		t.Fatalf("full compare violations = %v", v)
	}
	// A single-figure run is gated against that figure alone.
	if v := Compare(base.Only("fig7a"), cur, Tolerance{}); len(v) != 0 {
		t.Fatalf("single-figure compare violations = %v", v)
	}
	if len(base.Figures) != 2 {
		t.Fatalf("Only changed its receiver: %d figures left", len(base.Figures))
	}
	// ...and a regression in it still fails.
	fig := cur.Figures["fig7a"]
	s := fig.Series["spotfi"]
	s.Median *= 3
	fig.Series["spotfi"] = s
	if v := Compare(base.Only("fig7a"), cur, Tolerance{}); len(v) != 1 || !strings.Contains(v[0], "fig7a/spotfi: median") {
		t.Fatalf("regressed single-figure compare violations = %v", v)
	}
	// A figure the baseline lacks stays ungated-and-flagged.
	if v := Compare(base.Only("fig10"), cur, Tolerance{}); len(v) != 1 || !strings.Contains(v[0], "fig7a: not in baseline") {
		t.Fatalf("unknown-figure compare violations = %v", v)
	}
}

func TestCompareRejectsOptsMismatch(t *testing.T) {
	base, cur := baselinePair()
	cur.Opts.Packets = 40
	v := Compare(base, cur, Tolerance{})
	if len(v) != 1 || !strings.Contains(v[0], "opts mismatch") {
		t.Fatalf("violations = %v", v)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	base, _ := baselinePair()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != base.RunID || got.Opts != base.Opts {
		t.Fatalf("round trip lost header: %+v", got)
	}
	if got.Figures["fig7a"].Series["spotfi"] != base.Figures["fig7a"].Series["spotfi"] {
		t.Fatalf("round trip lost stats: %+v", got.Figures)
	}
	if v := Compare(base, got, Tolerance{}); len(v) != 0 {
		t.Fatalf("round-tripped baseline differs: %v", v)
	}
}

func TestLoadBaselineRejectsBadSchema(t *testing.T) {
	base, _ := baselinePair()
	base.Schema = 99
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
