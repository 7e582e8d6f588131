package experiments

import (
	"strings"
	"testing"

	"spotfi/internal/stats"
)

// quickOpts keeps unit-test runs fast; the full-scale run happens in
// cmd/spotfi-bench and the root benchmarks.
func quickOpts() Options {
	return Options{Seed: 1, Packets: 6, MaxTargets: 4}
}

func TestFig5Sanitization(t *testing.T) {
	r, err := Fig5Sanitization(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	before := stats.StdDev(r.Series[0].Values)
	after := stats.StdDev(r.Series[1].Values)
	t.Logf("tof stddev: unsanitized=%.2f ns, sanitized=%.2f ns", before, after)
	// Sanitization must remove most of the STO-induced ToF variance.
	if after > before/3 {
		t.Fatalf("sanitization ineffective: stddev before %.2f ns, after %.2f ns", before, after)
	}
}

func TestFig5cClusters(t *testing.T) {
	opts := quickOpts()
	opts.Packets = 30
	r, err := Fig5cClusters(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Notes, "selected direct path") {
		t.Fatalf("notes missing selection: %s", r.Notes)
	}
	if len(r.Series) == 0 {
		t.Fatal("no cluster series")
	}
}

func TestFig7aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	r, err := Fig7aOffice(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	sp := stats.Median(r.Series[0].Values)
	at := stats.Median(r.Series[1].Values)
	t.Logf("fig7a quick: spotfi=%.2f m, arraytrack=%.2f m", sp, at)
	if sp >= at {
		t.Fatalf("SpotFi (%.2f m) should beat ArrayTrack (%.2f m)", sp, at)
	}
	if out := r.Render(); !strings.Contains(out, "spotfi") || !strings.Contains(out, "cdf") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestFig8aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	opts := quickOpts()
	opts.MaxTargets = 8
	opts.Packets = 8
	r, err := Fig8aAoA(opts)
	if err != nil {
		t.Fatal(err)
	}
	spLoS := stats.Median(r.Series[0].Values)
	baseLoS := stats.Median(r.Series[1].Values)
	spNLoS := stats.Median(r.Series[2].Values)
	baseNLoS := stats.Median(r.Series[3].Values)
	t.Logf("fig8a quick: los %.1f° vs %.1f°, nlos %.1f° vs %.1f°", spLoS, baseLoS, spNLoS, baseNLoS)
	// The paper's headline gap is in NLoS, where antenna-only MUSIC lacks
	// the resolution to separate the weak direct path from reflections.
	if spNLoS >= baseNLoS {
		t.Fatalf("SpotFi NLoS AoA (%.1f°) should beat MUSIC-AoA (%.1f°)", spNLoS, baseNLoS)
	}
	// LoS errors should at least be small in absolute terms (paper: <5°).
	if spLoS > 6 {
		t.Fatalf("SpotFi LoS AoA error %.1f° too large", spLoS)
	}
}

func TestFig8bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	opts := quickOpts()
	opts.MaxTargets = 3
	r, err := Fig8bSelection(opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := stats.Median(r.Series[0].Values)
	spotfiSel := stats.Median(r.Series[1].Values)
	t.Logf("fig8b quick: oracle=%.1f°, spotfi=%.1f°", oracle, spotfiSel)
	// Oracle lower-bounds every scheme.
	if oracle > spotfiSel+1e-9 {
		t.Fatalf("oracle (%.1f°) cannot be worse than spotfi (%.1f°)", oracle, spotfiSel)
	}
}

func TestFig9aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	r, err := Fig9aDensity(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(r.Series))
	}
}

func TestFig9bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	opts := quickOpts()
	opts.Packets = 10
	r, err := Fig9bPackets(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 { // 6 and 10 packets
		t.Fatalf("series = %d, want 2", len(r.Series))
	}
}
