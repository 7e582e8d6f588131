package viz

import (
	"math"
	"strings"
	"testing"
)

func TestCDFPlotBuildsMonotoneCurves(t *testing.T) {
	p, err := CDFPlot("test", "error (m)", []string{"a", "b"},
		[][]float64{{3, 1, 2}, {0.5, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 2 {
		t.Fatalf("series = %d", len(p.Series))
	}
	for _, s := range p.Series {
		for i := 1; i < len(s.X); i++ {
			if s.X[i] < s.X[i-1] || s.Y[i] < s.Y[i-1] {
				t.Fatalf("non-monotone CDF curve in %s", s.Label)
			}
		}
		if s.Y[len(s.Y)-1] != 1 {
			t.Fatalf("CDF does not end at 1")
		}
	}
}

func TestCDFPlotErrors(t *testing.T) {
	if _, err := CDFPlot("t", "x", []string{"a"}, nil); err == nil {
		t.Fatal("mismatch accepted")
	}
	if _, err := CDFPlot("t", "x", nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := CDFPlot("t", "x", []string{"a"}, [][]float64{{}}); err == nil {
		t.Fatal("all-empty series accepted")
	}
	// All-NaN is as empty as empty.
	if _, err := CDFPlot("t", "x", []string{"a"}, [][]float64{{math.NaN(), math.NaN()}}); err == nil {
		t.Fatal("all-NaN series accepted")
	}
}

func TestCDFPlotSingleSample(t *testing.T) {
	p, err := CDFPlot("t", "x", []string{"a"}, [][]float64{{2.5}})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Series[0]
	// One sample still yields a curve: a step from (2.5, 0) to (2.5, 1).
	if len(s.X) != 2 || s.X[0] != 2.5 || s.X[1] != 2.5 || s.Y[0] != 0 || s.Y[1] != 1 {
		t.Fatalf("single-sample curve = X%v Y%v", s.X, s.Y)
	}
	// And the degenerate X range must still render.
	if svg := p.SVG(); !strings.Contains(svg, "<polyline") {
		t.Fatal("single-sample plot did not render a curve")
	}
}

func TestCDFPlotDropsNonFinite(t *testing.T) {
	p, err := CDFPlot("t", "x", []string{"good", "poisoned", "dead"},
		[][]float64{
			{1, 2},
			{math.NaN(), 0.5, math.Inf(1), 1.5, math.Inf(-1)},
			{math.NaN(), math.Inf(1)},
		})
	if err != nil {
		t.Fatal(err)
	}
	// The all-non-finite series is skipped, like an empty one.
	if len(p.Series) != 2 {
		t.Fatalf("series = %d, want 2 (dead series dropped)", len(p.Series))
	}
	poisoned := p.Series[1]
	if poisoned.Label != "poisoned" {
		t.Fatalf("series[1] = %q", poisoned.Label)
	}
	// Only the two finite samples survive: lead-in point + two steps.
	if len(poisoned.X) != 3 {
		t.Fatalf("poisoned curve has %d points, want 3: %v", len(poisoned.X), poisoned.X)
	}
	for i, x := range poisoned.X {
		if !finite(x) || !finite(poisoned.Y[i]) {
			t.Fatalf("non-finite leaked into curve: X%v Y%v", poisoned.X, poisoned.Y)
		}
	}
	if poisoned.Y[len(poisoned.Y)-1] != 1 {
		t.Fatal("CDF of surviving samples does not end at 1")
	}
	// The rendered SVG must be NaN-free.
	if svg := p.SVG(); strings.Contains(svg, "NaN") {
		t.Fatal("NaN leaked into SVG output")
	}
}

func TestLinePlotSVGWellFormed(t *testing.T) {
	p, err := CDFPlot("localization error", "m", []string{"spotfi", "arraytrack"},
		[][]float64{{0.2, 0.4, 0.9, 1.5}, {1.1, 1.8, 3.2, 4.0}})
	if err != nil {
		t.Fatal(err)
	}
	svg := p.SVG()
	for _, want := range []string{"<svg", "</svg>", "polyline", "spotfi", "arraytrack", "localization error"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatalf("want 2 polylines, got %d", strings.Count(svg, "<polyline"))
	}
	// Balanced document.
	if strings.Count(svg, "<svg") != strings.Count(svg, "</svg>") {
		t.Fatal("unbalanced svg tags")
	}
}

func TestLinePlotSVGEscapesLabels(t *testing.T) {
	p := &LinePlot{
		Title:  "a < b & c",
		Series: []Series{{Label: "<script>", X: []float64{0, 1}, Y: []float64{0, 1}}},
	}
	svg := p.SVG()
	if strings.Contains(svg, "<script>") {
		t.Fatal("label not escaped")
	}
	if !strings.Contains(svg, "&lt;script&gt;") {
		t.Fatal("escaped label missing")
	}
}

func TestLinePlotDegenerateRange(t *testing.T) {
	p := &LinePlot{Series: []Series{{Label: "flat", X: []float64{1, 1}, Y: []float64{2, 2}}}}
	svg := p.SVG()
	if strings.Contains(svg, "NaN") {
		t.Fatal("degenerate range produced NaN coordinates")
	}
}

func TestHeatmapSVG(t *testing.T) {
	h := &Heatmap{
		Title:  "MUSIC spectrum",
		XLabel: "ToF (ns)",
		YLabel: "AoA (deg)",
		X:      []float64{-200, 200},
		Y:      []float64{-90, 90},
		Z: [][]float64{
			{1, 2, 3},
			{4, 50, 6},
			{7, 8, 9},
		},
		LogScale: true,
	}
	svg, err := h.SVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "MUSIC spectrum") {
		t.Fatal("heatmap SVG malformed")
	}
	if strings.Count(svg, "<rect") < 9 {
		t.Fatalf("want ≥9 cells, got %d rects", strings.Count(svg, "<rect"))
	}
	if strings.Contains(svg, "NaN") {
		t.Fatal("NaN in SVG output")
	}
}

func TestHeatmapErrors(t *testing.T) {
	if _, err := (&Heatmap{}).SVG(); err == nil {
		t.Fatal("empty heatmap accepted")
	}
	ragged := &Heatmap{Z: [][]float64{{1, 2}, {3}}}
	if _, err := ragged.SVG(); err == nil {
		t.Fatal("ragged heatmap accepted")
	}
}

func TestColorRampEndpoints(t *testing.T) {
	if colorRamp(0) == colorRamp(1) {
		t.Fatal("ramp endpoints identical")
	}
	if c := colorRamp(math.NaN()); c != colorRamp(0) {
		t.Fatalf("NaN should map to 0: %s", c)
	}
	if colorRamp(-5) != colorRamp(0) || colorRamp(7) != colorRamp(1) {
		t.Fatal("ramp not clamped")
	}
}

func TestFloorPlanSVG(t *testing.T) {
	fp := &FloorPlan{
		Title: "office",
		MinX:  0, MinY: 0, MaxX: 16, MaxY: 10,
		Walls:      [][4]float64{{0, 0, 16, 0}, {0, 0, 0, 10}},
		Scatterers: [][2]float64{{3, 8}},
		APs:        [][3]float64{{0.4, 0.4, 0.5}, {15.6, 9.6, -2.5}},
		Targets:    [][2]float64{{5, 5}, {10, 2}},
	}
	svg, err := fp.SVG()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "office", "AP0", "AP1", "target", "scatterer"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("floor plan missing %q", want)
		}
	}
	if strings.Count(svg, "<circle") < 3 {
		t.Fatal("missing target/scatterer markers")
	}
}

func TestFloorPlanEmptyBounds(t *testing.T) {
	if _, err := (&FloorPlan{}).SVG(); err == nil {
		t.Fatal("empty bounds accepted")
	}
}
