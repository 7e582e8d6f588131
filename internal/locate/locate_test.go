package locate

import (
	"math"
	"math/rand"
	"testing"

	"spotfi/internal/geom"
	"spotfi/internal/rf"
)

var testBounds = Bounds{MinX: 0, MinY: 0, MaxX: 16, MaxY: 10}

// makeObs builds consistent observations for a target at truth, with the
// given per-AP AoA noise (radians) and RSSI noise (dB).
func makeObs(truth geom.Point, aps []geom.Point, normals []float64, aoaNoise, rssiNoise float64, rng *rand.Rand) []APObservation {
	model := rf.DefaultPathLoss()
	obs := make([]APObservation, len(aps))
	for i, pos := range aps {
		theta := foldAoA(truth.Sub(pos).Angle() - normals[i])
		obs[i] = APObservation{
			Pos:         pos,
			NormalAngle: normals[i],
			AoA:         theta + rng.NormFloat64()*aoaNoise,
			RSSIdBm:     model.RSSIdBm(truth.Dist(pos)) + rng.NormFloat64()*rssiNoise,
			Likelihood:  1,
		}
	}
	return obs
}

func defaultAPs() ([]geom.Point, []float64) {
	aps := []geom.Point{{X: 0, Y: 0}, {X: 16, Y: 0}, {X: 0, Y: 10}, {X: 16, Y: 10}, {X: 8, Y: 0}}
	normals := make([]float64, len(aps))
	center := geom.Point{X: 8, Y: 5}
	for i, p := range aps {
		normals[i] = center.Sub(p).Angle() // arrays face the room center
	}
	return aps, normals
}

func TestLocateExactObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	aps, normals := defaultAPs()
	truth := geom.Point{X: 5.3, Y: 6.1}
	obs := makeObs(truth, aps, normals, 0, 0, rng)
	res, err := Locate(obs, DefaultConfig(testBounds))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Location.Dist(truth); d > 0.05 {
		t.Fatalf("error %v m on noiseless observations (got %v)", d, res.Location)
	}
}

func TestLocateNoisyObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	aps, normals := defaultAPs()
	var errs []float64
	for trial := 0; trial < 20; trial++ {
		truth := geom.Point{X: 1 + 14*rng.Float64(), Y: 1 + 8*rng.Float64()}
		obs := makeObs(truth, aps, normals, geom.Rad(3), 2, rng)
		res, err := Locate(obs, DefaultConfig(testBounds))
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, res.Location.Dist(truth))
	}
	var sum float64
	for _, e := range errs {
		sum += e
	}
	if mean := sum / float64(len(errs)); mean > 1.0 {
		t.Fatalf("mean error %v m with 3° AoA noise", mean)
	}
}

func TestLocateDownweightsBadAP(t *testing.T) {
	aps, normals := defaultAPs()
	var sumDown, sumFull float64
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(930 + int64(trial)))
		truth := geom.Point{X: 2 + 12*rng.Float64(), Y: 1 + 8*rng.Float64()}
		obs := makeObs(truth, aps, normals, geom.Rad(1), 1, rng)
		// Corrupt one AP's AoA badly.
		obs[0].AoA = foldAoA(obs[0].AoA + geom.Rad(50))

		obs[0].Likelihood = 0.01
		resDown, err := Locate(obs, DefaultConfig(testBounds))
		if err != nil {
			t.Fatal(err)
		}
		if d := resDown.Location.Dist(truth); d > 1.2 {
			t.Fatalf("trial %d: low-likelihood corruption moved estimate by %v m", trial, d)
		}
		sumDown += resDown.Location.Dist(truth)

		obs[0].Likelihood = 1
		resFull, err := Locate(obs, DefaultConfig(testBounds))
		if err != nil {
			t.Fatal(err)
		}
		sumFull += resFull.Location.Dist(truth)
	}
	// On average the full-weight corruption must hurt more than the
	// downweighted one — the point of likelihood weighting in Eq. 9.
	if sumFull <= sumDown {
		t.Fatalf("mean error full=%.3f ≤ down=%.3f", sumFull/trials, sumDown/trials)
	}
}

func TestLocateFitsIntercept(t *testing.T) {
	// Observations generated with a different P0 than the localizer's
	// initial model: intercept fitting must absorb the mismatch.
	rng := rand.New(rand.NewSource(94))
	aps, normals := defaultAPs()
	truth := geom.Point{X: 4, Y: 7}
	trueModel := rf.PathLoss{P0dBm: -50, Exponent: 3, RefDistM: 1} // 12 dB off default
	obs := make([]APObservation, len(aps))
	for i, pos := range aps {
		obs[i] = APObservation{
			Pos:         pos,
			NormalAngle: normals[i],
			AoA:         foldAoA(truth.Sub(pos).Angle() - normals[i]),
			RSSIdBm:     trueModel.RSSIdBm(truth.Dist(pos)),
			Likelihood:  1,
		}
	}
	_ = rng
	res, err := Locate(obs, DefaultConfig(testBounds))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Location.Dist(truth); d > 0.1 {
		t.Fatalf("intercept mismatch not absorbed: error %v m", d)
	}
	if math.Abs(res.PathLoss.P0dBm-(-50)) > 1 {
		t.Fatalf("fitted P0 = %v, want ≈−50", res.PathLoss.P0dBm)
	}
}

func TestLocateTwoAPs(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	aps := []geom.Point{{X: 0, Y: 0}, {X: 16, Y: 0}}
	normals := []float64{geom.Rad(45), geom.Rad(135)}
	truth := geom.Point{X: 8, Y: 5}
	obs := makeObs(truth, aps, normals, geom.Rad(1), 1, rng)
	res, err := Locate(obs, DefaultConfig(testBounds))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Location.Dist(truth); d > 1.5 {
		t.Fatalf("two-AP error %v m", d)
	}
}

func TestLocateErrors(t *testing.T) {
	cfg := DefaultConfig(testBounds)
	if _, err := Locate(nil, cfg); err == nil {
		t.Fatal("no observations accepted")
	}
	one := []APObservation{{Pos: geom.Point{X: 0, Y: 0}, Likelihood: 1}}
	if _, err := Locate(one, cfg); err == nil {
		t.Fatal("single AP accepted")
	}
	zeroL := []APObservation{
		{Pos: geom.Point{X: 0, Y: 0}, Likelihood: 0},
		{Pos: geom.Point{X: 1, Y: 0}, Likelihood: 0},
	}
	if _, err := Locate(zeroL, cfg); err == nil {
		t.Fatal("all-zero likelihood accepted")
	}
	nan := []APObservation{
		{Pos: geom.Point{X: 0, Y: 0}, AoA: math.NaN(), Likelihood: 1},
		{Pos: geom.Point{X: 1, Y: 0}, Likelihood: 1},
	}
	if _, err := Locate(nan, cfg); err == nil {
		t.Fatal("NaN AoA accepted")
	}
	bad := cfg
	bad.RSSIWeightDB2 = -1
	two := []APObservation{
		{Pos: geom.Point{X: 0, Y: 0}, Likelihood: 1},
		{Pos: geom.Point{X: 1, Y: 0}, Likelihood: 1},
	}
	if _, err := Locate(two, bad); err == nil {
		t.Fatal("negative RSSI weight accepted")
	}
	badB := cfg
	badB.Bounds = Bounds{MinX: 5, MaxX: 5, MinY: 0, MaxY: 1}
	if _, err := Locate(two, badB); err == nil {
		t.Fatal("empty bounds accepted")
	}
}

func TestBoundsClampContains(t *testing.T) {
	b := Bounds{MinX: 0, MinY: 0, MaxX: 10, MaxY: 5}
	if !b.Contains(geom.Point{X: 5, Y: 2}) || b.Contains(geom.Point{X: -1, Y: 2}) {
		t.Fatal("Contains wrong")
	}
	c := b.Clamp(geom.Point{X: 12, Y: -3})
	if c != (geom.Point{X: 10, Y: 0}) {
		t.Fatalf("Clamp = %v", c)
	}
}

// gaussianSpectrum builds a synthetic AoA pseudo-spectrum peaked at peak.
func gaussianSpectrum(pos geom.Point, normal, peak, width float64) SpectrumObservation {
	s := SpectrumObservation{Pos: pos, NormalAngle: normal}
	for th := -math.Pi / 2; th <= math.Pi/2; th += math.Pi / 360 {
		s.Thetas = append(s.Thetas, th)
		d := th - peak
		s.P = append(s.P, math.Exp(-d*d/(2*width*width))+1e-6)
	}
	return s
}

func TestLocateArrayTrackRecoversTarget(t *testing.T) {
	aps, normals := defaultAPs()
	truth := geom.Point{X: 11, Y: 3}
	var obs []SpectrumObservation
	for i := range aps {
		peak := foldAoA(truth.Sub(aps[i]).Angle() - normals[i])
		obs = append(obs, gaussianSpectrum(aps[i], normals[i], peak, geom.Rad(4)))
	}
	got, err := LocateArrayTrack(obs, testBounds)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Dist(truth); d > 0.5 {
		t.Fatalf("ArrayTrack error %v m on clean spectra", d)
	}
}

func TestLocateArrayTrackWrongPeakPullsEstimate(t *testing.T) {
	// One AP peaked at a reflection bearing: estimate should degrade but
	// not explode (other APs still constrain it).
	aps, normals := defaultAPs()
	truth := geom.Point{X: 6, Y: 6}
	var obs []SpectrumObservation
	for i := range aps {
		peak := foldAoA(truth.Sub(aps[i]).Angle() - normals[i])
		if i == 0 {
			peak = foldAoA(peak + geom.Rad(35))
		}
		obs = append(obs, gaussianSpectrum(aps[i], normals[i], peak, geom.Rad(4)))
	}
	got, err := LocateArrayTrack(obs, testBounds)
	if err != nil {
		t.Fatal(err)
	}
	d := got.Dist(truth)
	if d > 4 {
		t.Fatalf("single corrupt AP blew up the estimate: %v m", d)
	}
}

func TestLocateArrayTrackErrors(t *testing.T) {
	if _, err := LocateArrayTrack(nil, testBounds); err == nil {
		t.Fatal("no APs accepted")
	}
	s := gaussianSpectrum(geom.Point{X: 0, Y: 0}, 0, 0, 0.1)
	if _, err := LocateArrayTrack([]SpectrumObservation{s}, testBounds); err == nil {
		t.Fatal("single AP accepted")
	}
	malformed := s
	malformed.P = malformed.P[:3]
	if _, err := LocateArrayTrack([]SpectrumObservation{s, malformed}, testBounds); err == nil {
		t.Fatal("malformed spectrum accepted")
	}
	if _, err := LocateArrayTrack([]SpectrumObservation{s, s}, Bounds{MinX: 5, MaxX: 5, MinY: 0, MaxY: 1}); err == nil {
		t.Fatal("empty bounds accepted")
	}
}

func TestSpectrumInterp(t *testing.T) {
	s := SpectrumObservation{
		Thetas: []float64{0, 1, 2},
		P:      []float64{10, 20, 40},
	}
	if v := s.interp(-1); v != 10 {
		t.Fatalf("below-range interp = %v", v)
	}
	if v := s.interp(3); v != 40 {
		t.Fatalf("above-range interp = %v", v)
	}
	if v := s.interp(0.5); math.Abs(v-15) > 1e-12 {
		t.Fatalf("interp(0.5) = %v, want 15", v)
	}
	if v := s.interp(1.5); math.Abs(v-30) > 1e-12 {
		t.Fatalf("interp(1.5) = %v, want 30", v)
	}
}

func TestLocateFitsExponent(t *testing.T) {
	// Observations generated with exponent 2.2 while the localizer's prior
	// is 3.0: only the intercept is fitted, so the exponent must stay at
	// the prior (AoA still anchors the location).
	aps, normals := defaultAPs()
	truth := geom.Point{X: 11, Y: 3}
	trueModel := rf.PathLoss{P0dBm: -40, Exponent: 2.2, RefDistM: 1}
	obs := make([]APObservation, len(aps))
	for i, pos := range aps {
		obs[i] = APObservation{
			Pos:         pos,
			NormalAngle: normals[i],
			AoA:         foldAoA(truth.Sub(pos).Angle() - normals[i]),
			RSSIdBm:     trueModel.RSSIdBm(truth.Dist(pos)),
			Likelihood:  1,
		}
	}
	cfg := DefaultConfig(testBounds)
	// Make RSSI matter so the intercept fit is exercised.
	cfg.RSSIWeightDB2 = 1.0 / 50
	res, err := Locate(obs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PathLoss.Exponent-3.0) > 1e-9 {
		t.Fatalf("exponent moved off the prior: %v", res.PathLoss.Exponent)
	}
}

func TestLocateAoAResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	aps, normals := defaultAPs()
	truth := geom.Point{X: 5.3, Y: 6.1}
	obs := makeObs(truth, aps, normals, 0, 0, rng)
	// One AP disagrees hard; one is unusable.
	obs[1].AoA = foldAoA(obs[1].AoA + geom.Rad(25))
	obs[2].Likelihood = 0
	res, err := Locate(obs, DefaultConfig(testBounds))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AoAResid) != len(obs) {
		t.Fatalf("AoAResid has %d entries, want %d", len(res.AoAResid), len(obs))
	}
	if !math.IsNaN(res.AoAResid[2]) {
		t.Fatalf("zero-likelihood AP residual = %v, want NaN", res.AoAResid[2])
	}
	// The consistent APs pin the solution, so the corrupted AP's residual
	// must dwarf theirs.
	bad := math.Abs(res.AoAResid[1])
	for _, i := range []int{0, 3, 4} {
		if good := math.Abs(res.AoAResid[i]); good >= bad/3 {
			t.Fatalf("AP %d residual %v not well below corrupted AP's %v", i, good, bad)
		}
	}
	if bad < geom.Rad(5) {
		t.Fatalf("corrupted AP residual %v rad, want ≥ 5°", bad)
	}
}
