package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/rf"
)

// optScene synthesizes a noisy multipath packet with the given paths.
func optScene(seed int64, sigma float64, paths []PathEstimate, gains []complex128) *csi.Matrix {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	c := buildCSI(band, array, paths, gains)
	addNoise(c, sigma, rand.New(rand.NewSource(seed)))
	return c
}

func TestSteeringCacheSharedAndCounted(t *testing.T) {
	p := DefaultParams()
	// Perturb the grid so this configuration cannot collide with other
	// tests' cache entries.
	p.ToFMaxS = 201e-9
	h0, m0, _ := SteeringCacheStats()
	e1, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1, _ := SteeringCacheStats()
	if m1 != m0+1 || h1 != h0 {
		t.Fatalf("first build: hits %d→%d misses %d→%d, want one miss", h0, h1, m0, m1)
	}
	e2, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2, _ := SteeringCacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("second build: hits %d→%d misses %d→%d, want one hit", h1, h2, m1, m2)
	}
	if e1.tab != e2.tab {
		t.Fatal("same params produced different steering tables")
	}
	// A different grid is a different entry.
	p2 := p
	p2.AoAGridRad = math.Pi / 360
	e3, err := NewEstimator(p2)
	if err != nil {
		t.Fatal(err)
	}
	if e3.tab == e1.tab {
		t.Fatal("different grids share a steering table")
	}
}

func TestSteeringCacheConcurrentLookup(t *testing.T) {
	p := DefaultParams()
	p.ToFMaxS = 202e-9 // unique cache key for this test
	var wg sync.WaitGroup
	tabs := make([]*steeringTable, 16)
	for i := range tabs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := NewEstimator(p)
			if err != nil {
				t.Error(err)
				return
			}
			tabs[i] = e.tab
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(tabs); i++ {
		if tabs[i] != tabs[0] {
			t.Fatal("concurrent lookups produced distinct tables")
		}
	}
}

func TestSteeringTableMatchesDirectEvaluation(t *testing.T) {
	p := DefaultParams()
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	tab := e.tab
	nt := len(tab.thetas)
	for _, i := range []int{0, 1, nt / 2, nt - 1} {
		phi := Phi(tab.thetas[i], p.Array, p.Band)
		c := 0
		for a := 0; a < tab.subAnt; a++ {
			for b := a + 1; b < tab.subAnt; b++ {
				want := cmplx.Conj(complexPow(phi, a)) * complexPow(phi, b)
				if got := tab.pair[c*nt+i]; cmplx.Abs(got-want) > 1e-12 {
					t.Fatalf("pair table (%d, a=%d, b=%d) = %v, want %v", i, a, b, got, want)
				}
				c++
			}
		}
		if c != tab.nPair {
			t.Fatalf("walked %d antenna pairs, table has %d", c, tab.nPair)
		}
	}
	for _, j := range []int{0, len(tab.taus) / 2, len(tab.taus) - 1} {
		om := Omega(tab.taus[j], p.Band)
		for s := 0; s < tab.subSub; s++ {
			want := complexPow(om, s)
			if cmplx.Abs(tab.omega[j*tab.subSub+s]-want) > 1e-12 {
				t.Fatalf("omega table (%d,%d) mismatch", j, s)
			}
		}
	}
}

func complexPow(z complex128, n int) complex128 {
	r, phase := cmplx.Polar(z)
	return cmplx.Rect(math.Pow(r, float64(n)), phase*float64(n))
}

func TestEstimateSteadyStateAllocs(t *testing.T) {
	e, err := NewEstimator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]*csi.Matrix, 4)
	for i := range cs {
		cs[i] = optScene(int64(i+1), 0.05,
			[]PathEstimate{{AoA: 0.3, ToF: 15e-9}, {AoA: -0.5, ToF: 55e-9}},
			[]complex128{1, 0.6 + 0.2i})
	}
	for _, c := range cs {
		if _, err := e.EstimatePaths(c); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	allocs := testing.AllocsPerRun(16, func() {
		if _, err := e.EstimatePaths(cs[n%len(cs)]); err != nil {
			t.Fatal(err)
		}
		n++
	})
	// The only steady-state allocation is the caller-owned result slice.
	if allocs > 2 {
		t.Fatalf("steady-state EstimatePaths allocates %.1f times per call, want ≤ 2", allocs)
	}
}

// TestDedupeRadiiSurviveGridRefinement is the regression test for the
// grid-index dedupe bug: halving both grid steps must not change how many
// distinct paths survive merging, because the merge radii are physical.
func TestDedupeRadiiSurviveGridRefinement(t *testing.T) {
	paths := []PathEstimate{
		{AoA: 0.3, ToF: 20e-9}, {AoA: -0.6, ToF: 80e-9}}
	gains := []complex128{1, 0.7 + 0.2i}

	counts := make(map[string]int)
	for _, cfg := range []struct {
		name  string
		scale float64
	}{{"default-grid", 1}, {"half-step-grid", 0.5}} {
		p := DefaultParams()
		p.AoAGridRad *= cfg.scale
		p.ToFGridS *= cfg.scale
		e, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		c := optScene(3, 0.05, paths, gains)
		got, err := e.EstimatePaths(c)
		if err != nil {
			t.Fatal(err)
		}
		counts[cfg.name] = len(got)
	}
	if counts["default-grid"] != counts["half-step-grid"] {
		t.Fatalf("path count changed with grid refinement: %v", counts)
	}
}

// TestGeometricSeriesClosedForm is the regression test for phase/magnitude
// accumulation drift: element n of the series must match the closed form
// z^n even at n = 256.
func TestGeometricSeriesClosedForm(t *testing.T) {
	const n = 256
	z := cmplx.Exp(complex(0, -2*math.Pi*0.31830988618)) // irrational turn: worst case for drift
	out := geometricSeries(z, n)
	phase := cmplx.Phase(z)
	for _, i := range []int{1, 2, 17, 128, n - 1} {
		want := cmplx.Rect(1, phase*float64(i))
		if cmplx.Abs(out[i]-want) > 1e-12 {
			t.Fatalf("element %d: %v, want %v (|Δ| = %.3g)", i, out[i], want, cmplx.Abs(out[i]-want))
		}
		// The input z = e^{jθ} itself carries ~1 ulp of magnitude error,
		// so the bound is a few ulps — independent of i, unlike the
		// repeated-multiplication drift which grows linearly with i.
		if d := math.Abs(cmplx.Abs(out[i]) - 1); d > 5e-15 {
			t.Fatalf("element %d walked off the unit circle by %.3g", i, d)
		}
	}
	// Non-unit modulus stays on the closed form too.
	r := 0.99
	zr := complex(r, 0) * z
	outR := geometricSeries(zr, n)
	for _, i := range []int{1, 64, n - 1} {
		want := cmplx.Rect(math.Pow(r, float64(i)), phase*float64(i))
		if cmplx.Abs(outR[i]-want) > 1e-12*math.Pow(r, float64(i))+1e-18 {
			t.Fatalf("damped element %d: %v, want %v", i, outR[i], want)
		}
	}
}

func TestRefineAxisBoundaryAndClamp(t *testing.T) {
	grid := []float64{0, 1, 2, 3}
	flat := func(int) float64 { return 1 }
	// Out-of-range indices clamp into the grid instead of panicking.
	if got := refineAxis(grid, -3, flat); got != 0 {
		t.Fatalf("refineAxis(-3) = %v, want 0", got)
	}
	if got := refineAxis(grid, 99, flat); got != 3 {
		t.Fatalf("refineAxis(99) = %v, want 3", got)
	}
	// Boundary indices return the grid point: no neighbor to fit through.
	if got := refineAxis(grid, 0, flat); got != 0 {
		t.Fatalf("refineAxis(0) = %v, want 0", got)
	}
	if got := refineAxis(grid, len(grid)-1, flat); got != 3 {
		t.Fatalf("refineAxis(last) = %v, want 3", got)
	}
	// A flat (degenerate) parabola at an interior point returns the grid
	// point rather than dividing by ~0.
	if got := refineAxis(grid, 1, flat); got != 1 {
		t.Fatalf("flat refineAxis = %v, want 1", got)
	}
	// The interpolated result never leaves the grid range even when the
	// parabola vertex would.
	steep := func(k int) float64 { return []float64{10, 9.99, 0, -50}[k] }
	got := refineAxis(grid, 1, steep)
	if got < grid[0] || got > grid[len(grid)-1] {
		t.Fatalf("refined value %v escaped the grid", got)
	}
	if refineAxis(nil, 0, flat) != 0 {
		t.Fatal("empty grid must return 0")
	}
}
