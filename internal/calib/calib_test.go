package calib

import (
	"math"
	"math/rand"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/geom"
	"spotfi/internal/music"
	"spotfi/internal/rf"
	"spotfi/internal/sim"
)

// beaconBurst synthesizes calibration packets: a LoS-only beacon in front
// of an AP whose antennas carry the given fixed phase offsets.
func beaconBurst(t *testing.T, offsets []float64, beacon geom.Point, ap sim.AP, n int, seed int64) ([]*csi.Packet, float64) {
	t.Helper()
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	env := &sim.Environment{}
	rng := rand.New(rand.NewSource(seed))
	link := sim.NewLink(env, ap, beacon, sim.DefaultLinkConfig(), rng)
	imp := sim.DefaultImpairments()
	imp.AntennaPhaseOffsetsRad = offsets
	syn, err := sim.NewSynthesizer(link, band, array, imp, rng)
	if err != nil {
		t.Fatal(err)
	}
	return syn.Burst("beacon", n), ap.AoATo(beacon)
}

func TestEstimateRecoversOffsets(t *testing.T) {
	truth := []float64{0, 0.25, -0.4}
	ap := sim.AP{Pos: geom.Point{X: 0, Y: 0}, NormalAngle: 0}
	burst, knownAoA := beaconBurst(t, truth, geom.Point{X: 3, Y: 0.5}, ap, 20, 41)
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	got, err := Estimate(burst, knownAoA, band, array)
	if err != nil {
		t.Fatal(err)
	}
	for m := range truth {
		// Offsets are relative to antenna 0.
		want := truth[m] - truth[0]
		if d := math.Abs(wrap(got[m] - want)); d > 0.04 {
			t.Fatalf("offset %d = %.3f rad, want %.3f (err %.3f)", m, got[m], want, d)
		}
	}
}

func TestApplyRestoresAoAAccuracy(t *testing.T) {
	// Miscalibrated AP: large offsets bias the AoA estimate; after
	// calibration the bias is gone.
	truth := []float64{0, 0.5, -0.6}
	ap := sim.AP{Pos: geom.Point{X: 0, Y: 0}, NormalAngle: 0}
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)

	// Calibration beacon straight ahead.
	calBurst, knownAoA := beaconBurst(t, truth, geom.Point{X: 2, Y: 0}, ap, 20, 42)
	off, err := Estimate(calBurst, knownAoA, band, array)
	if err != nil {
		t.Fatal(err)
	}

	// A different target seen by the same (mis)calibrated hardware.
	targetBurst, targetAoA := beaconBurst(t, truth, geom.Point{X: 4, Y: 3}, ap, 5, 43)
	est, err := music.NewAoAEstimator(music.DefaultAoAParams())
	if err != nil {
		t.Fatal(err)
	}

	errAt := func(c *csi.Matrix) float64 {
		paths, err := est.EstimatePaths(c)
		if err != nil || len(paths) == 0 {
			t.Fatal("estimation failed")
		}
		return math.Abs(paths[0].AoA - targetAoA)
	}

	raw := errAt(targetBurst[0].CSI.Clone())
	fixed := targetBurst[0].CSI.Clone()
	if err := Apply(fixed, off); err != nil {
		t.Fatal(err)
	}
	corrected := errAt(fixed)
	t.Logf("AoA error: raw %.1f°, calibrated %.1f°", geom.Deg(raw), geom.Deg(corrected))
	if corrected > raw/2 {
		t.Fatalf("calibration did not help: raw %.2f°, corrected %.2f°",
			geom.Deg(raw), geom.Deg(corrected))
	}
	if geom.Deg(corrected) > 2 {
		t.Fatalf("corrected AoA error %.2f° too large", geom.Deg(corrected))
	}
}

func TestEstimateErrors(t *testing.T) {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	if _, err := Estimate(nil, 0, band, array); err == nil {
		t.Fatal("empty bursts accepted")
	}
	wrong := &csi.Packet{TargetMAC: "x", RSSIdBm: -40, CSI: csi.NewMatrix(2, 30)}
	if _, err := Estimate([]*csi.Packet{wrong}, 0, band, array); err == nil {
		t.Fatal("wrong-shape CSI accepted")
	}
	zero := &csi.Packet{TargetMAC: "x", RSSIdBm: -40, CSI: csi.NewMatrix(3, 30)}
	if _, err := Estimate([]*csi.Packet{zero}, 0, band, array); err == nil {
		t.Fatal("all-zero CSI accepted")
	}
	badBand := band
	badBand.Subcarriers = 0
	if _, err := Estimate([]*csi.Packet{zero}, 0, badBand, array); err == nil {
		t.Fatal("invalid band accepted")
	}
}

func TestApplyErrors(t *testing.T) {
	if err := Apply(nil, Offsets{0}); err == nil {
		t.Fatal("nil CSI accepted")
	}
	if err := Apply(csi.NewMatrix(3, 30), Offsets{0, 1}); err == nil {
		t.Fatal("offset length mismatch accepted")
	}
}

func TestWrap(t *testing.T) {
	if w := wrap(3 * math.Pi); math.Abs(w-math.Pi) > 1e-12 {
		t.Fatalf("wrap(3π) = %v", w)
	}
	if w := wrap(-3 * math.Pi); math.Abs(w-math.Pi) > 1e-12 {
		t.Fatalf("wrap(−3π) = %v", w)
	}
}
