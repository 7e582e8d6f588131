package spotfi

import (
	"math"
	"testing"

	"spotfi/internal/geom"
	"spotfi/internal/stats"
	"spotfi/internal/testbed"
)

func deploymentAPs(d *testbed.Deployment) []AP {
	aps := make([]AP, len(d.APs))
	for i, ap := range d.APs {
		aps[i] = AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	return aps
}

func TestEndToEndOfficeLocalization(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run is expensive")
	}
	d := testbed.Office(1)
	loc, err := New(DefaultConfig(d.Bounds), deploymentAPs(d))
	if err != nil {
		t.Fatal(err)
	}
	const packets = 10
	var errs []float64
	for ti := 0; ti < 8; ti++ {
		bursts := make(map[int][]*Packet)
		for a := range d.APs {
			b, err := d.Burst(a, ti, packets)
			if err != nil {
				t.Fatal(err)
			}
			bursts[a] = b
		}
		p, reports, _, err := loc.LocalizeBursts(bursts)
		if err != nil {
			t.Fatalf("target %d: %v", ti, err)
		}
		errs = append(errs, p.Dist(d.Targets[ti]))
		// Every fix carries a confidence score; clean simulated bursts
		// from 6 LoS-rich APs should not look doubtful.
		if p.Confidence <= 0.3 || p.Confidence > 1 {
			t.Fatalf("target %d: confidence %.3f (quality %+v), want (0.3, 1]", ti, p.Confidence, p.Quality)
		}
		for _, r := range reports {
			if r.Margin < 0 || r.Margin > 1 {
				t.Fatalf("AP %d margin %v out of [0,1]", r.APID, r.Margin)
			}
			if math.IsNaN(r.EigenGapDB) || math.IsNaN(r.STOMeanNs) {
				t.Fatalf("AP %d burst diagnostics missing: gap=%v sto=%v", r.APID, r.EigenGapDB, r.STOMeanNs)
			}
		}
	}
	med := stats.Median(errs)
	t.Logf("office end-to-end: median %.2f m over %d targets (errors %v)", med, len(errs), errs)
	if med > 1.0 {
		t.Fatalf("median localization error %.2f m, want ≤ 1.0 m", med)
	}
}

func TestEndToEndAoAEstimation(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run is expensive")
	}
	// On LoS links the selected direct-path AoA should be within a few
	// degrees of ground truth (paper: median < 5° in LoS).
	d := testbed.Office(2)
	loc, err := New(DefaultConfig(d.Bounds), deploymentAPs(d))
	if err != nil {
		t.Fatal(err)
	}
	var errsDeg []float64
	for ti := 0; ti < 6; ti++ {
		los := map[int]bool{}
		for _, a := range d.LoSAPs(ti) {
			los[a] = true
		}
		for a := range d.APs {
			if !los[a] {
				continue
			}
			burst, err := d.Burst(a, ti, 10)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := loc.ProcessBurstTraced(a, burst, nil)
			if err != nil {
				t.Fatal(err)
			}
			truth := d.GroundTruthAoA(a, ti)
			errsDeg = append(errsDeg, geom.Deg(math.Abs(rep.AoA-truth)))
		}
	}
	if len(errsDeg) == 0 {
		t.Fatal("no LoS links found")
	}
	med := stats.Median(errsDeg)
	t.Logf("LoS direct-path AoA: median %.1f° over %d links", med, len(errsDeg))
	if med > 6 {
		t.Fatalf("median LoS AoA error %.1f°, want ≤ 6°", med)
	}
}

func TestLocalizerConstruction(t *testing.T) {
	b := Bounds{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	aps := []AP{{ID: 0, Pos: Point{X: 0, Y: 0}}, {ID: 1, Pos: Point{X: 10, Y: 0}}}
	if _, err := New(DefaultConfig(b), aps); err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig(b), nil); err == nil {
		t.Fatal("no APs accepted")
	}
	dup := []AP{{ID: 0}, {ID: 0}}
	if _, err := New(DefaultConfig(b), dup); err == nil {
		t.Fatal("duplicate AP IDs accepted")
	}
	bad := DefaultConfig(b)
	bad.Music.MaxPaths = 0
	if _, err := New(bad, aps); err == nil {
		t.Fatal("invalid music params accepted")
	}
	badL := DefaultConfig(b)
	badL.Locate.RSSIWeightDB2 = -1
	if _, err := New(badL, aps); err == nil {
		t.Fatal("invalid locate params accepted")
	}
}

func TestProcessBurstErrors(t *testing.T) {
	b := Bounds{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	aps := []AP{{ID: 0}, {ID: 1, Pos: Point{X: 10}}}
	loc, err := New(DefaultConfig(b), aps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loc.ProcessBurstTraced(99, nil, nil); err == nil {
		t.Fatal("unknown AP accepted")
	}
	if _, err := loc.ProcessBurstTraced(0, nil, nil); err == nil {
		t.Fatal("empty burst accepted")
	}
}
