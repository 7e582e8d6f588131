package sim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"spotfi/internal/geom"
	"spotfi/internal/rf"
)

func testEnv() *Environment {
	return &Environment{
		Walls: []Wall{
			{Seg: geom.Segment{A: geom.Point{X: 0, Y: 10}, B: geom.Point{X: 20, Y: 10}}, LossDB: 12, ReflectLossDB: 7},
			{Seg: geom.Segment{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 20, Y: 0}}, LossDB: 12, ReflectLossDB: 7},
		},
		Scatterers: []Scatterer{
			{Pos: geom.Point{X: 15, Y: 5}, LossDB: 15},
		},
	}
}

func TestEnvironmentLoS(t *testing.T) {
	env := testEnv()
	if !env.LoS(geom.Point{X: 1, Y: 5}, geom.Point{X: 10, Y: 5}) {
		t.Fatal("clear path reported blocked")
	}
	if env.LoS(geom.Point{X: 5, Y: 5}, geom.Point{X: 5, Y: 15}) {
		t.Fatal("path through wall reported clear")
	}
}

func TestCrossLossAccumulates(t *testing.T) {
	env := testEnv()
	// Path through both walls.
	loss := env.CrossLossDB(geom.Point{X: 5, Y: -5}, geom.Point{X: 5, Y: 15})
	if math.Abs(loss-24) > 1e-9 {
		t.Fatalf("loss through two walls = %v, want 24", loss)
	}
	// NewLink charges the crossing loss to the direct path's gain.
	cfg := DefaultLinkConfig()
	link := NewLink(env, AP{Pos: geom.Point{X: 5, Y: 5}}, geom.Point{X: 5, Y: 12}, cfg, rand.New(rand.NewSource(8)))
	d, ok := link.DirectPath()
	if !ok {
		t.Fatal("a 12 dB wall removed the direct path")
	}
	if want := cfg.PathLoss.RSSIdBm(7) - 12; math.Abs(d.GainDBm-want) > 1e-9 {
		t.Fatalf("direct gain behind a 12 dB wall = %v, want %v", d.GainDBm, want)
	}
}

func TestFoldAoA(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi / 4, math.Pi / 4},
		{-math.Pi / 3, -math.Pi / 3},
		{math.Pi - 0.3, 0.3},   // behind the array aliases to the front mirror
		{-math.Pi + 0.2, -0.2}, // behind, other side
		{math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := foldAoA(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("foldAoA(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAPAoATo(t *testing.T) {
	ap := AP{Pos: geom.Point{X: 0, Y: 0}, NormalAngle: 0} // normal along +X
	if got := ap.AoATo(geom.Point{X: 5, Y: 0}); math.Abs(got) > 1e-12 {
		t.Fatalf("broadside AoA = %v, want 0", got)
	}
	got := ap.AoATo(geom.Point{X: 5, Y: 5})
	if math.Abs(got-math.Pi/4) > 1e-12 {
		t.Fatalf("45° AoA = %v", got)
	}
}

func TestNewLinkDirectPathGeometry(t *testing.T) {
	env := &Environment{}
	ap := AP{ID: 1, Pos: geom.Point{X: 0, Y: 0}, NormalAngle: 0}
	target := geom.Point{X: 3, Y: 4}
	rng := rand.New(rand.NewSource(1))
	link := NewLink(env, ap, target, DefaultLinkConfig(), rng)
	d, ok := link.DirectPath()
	if !ok {
		t.Fatal("no direct path in empty environment")
	}
	wantToF := 5.0 / rf.SpeedOfLight
	if math.Abs(d.ToF-wantToF) > 1e-15 {
		t.Fatalf("direct ToF = %v, want %v", d.ToF, wantToF)
	}
	wantAoA := math.Atan2(4, 3)
	if math.Abs(d.AoA-wantAoA) > 1e-12 {
		t.Fatalf("direct AoA = %v, want %v", d.AoA, wantAoA)
	}
}

func TestNewLinkReflectionImageMethod(t *testing.T) {
	// Single mirror wall along y=10; AP and target both below it.
	env := &Environment{Walls: []Wall{
		{Seg: geom.Segment{A: geom.Point{X: -100, Y: 10}, B: geom.Point{X: 100, Y: 10}}, LossDB: 12, ReflectLossDB: 6},
	}}
	ap := AP{Pos: geom.Point{X: 0, Y: 0}, NormalAngle: math.Pi / 2}
	target := geom.Point{X: 6, Y: 0}
	rng := rand.New(rand.NewSource(2))
	link := NewLink(env, ap, target, DefaultLinkConfig(), rng)

	var refl *Path
	for i := range link.Paths {
		if link.Paths[i].Kind == Reflected {
			refl = &link.Paths[i]
			break
		}
	}
	if refl == nil {
		t.Fatal("no reflected path found")
	}
	// Image of target is (6, 20); reflected path length = |(0,0)−(6,20)|.
	wantLen := math.Hypot(6, 20)
	if math.Abs(refl.ToF*rf.SpeedOfLight-wantLen) > 1e-9 {
		t.Fatalf("reflected length = %v, want %v", refl.ToF*rf.SpeedOfLight, wantLen)
	}
	// Reflected path is longer and weaker than the direct path.
	d, _ := link.DirectPath()
	if refl.ToF <= d.ToF {
		t.Fatal("reflected ToF not larger than direct")
	}
	if refl.GainDBm >= d.GainDBm {
		t.Fatal("reflected gain not weaker than direct")
	}
}

func TestNewLinkNoSpecularPointNoReflection(t *testing.T) {
	// Short wall far to the side: image ray misses the wall segment.
	env := &Environment{Walls: []Wall{
		{Seg: geom.Segment{A: geom.Point{X: 50, Y: 10}, B: geom.Point{X: 51, Y: 10}}, LossDB: 12, ReflectLossDB: 6},
	}}
	ap := AP{Pos: geom.Point{X: 0, Y: 0}}
	rng := rand.New(rand.NewSource(3))
	link := NewLink(env, ap, geom.Point{X: 2, Y: 0}, DefaultLinkConfig(), rng)
	for _, p := range link.Paths {
		if p.Kind == Reflected {
			t.Fatal("reflection created without a valid specular point")
		}
	}
}

func TestNewLinkNonReflectiveWall(t *testing.T) {
	env := &Environment{Walls: []Wall{
		{Seg: geom.Segment{A: geom.Point{X: -100, Y: 10}, B: geom.Point{X: 100, Y: 10}}, LossDB: 12, ReflectLossDB: -1},
	}}
	ap := AP{Pos: geom.Point{X: 0, Y: 0}}
	rng := rand.New(rand.NewSource(4))
	link := NewLink(env, ap, geom.Point{X: 6, Y: 0}, DefaultLinkConfig(), rng)
	for _, p := range link.Paths {
		if p.Kind == Reflected {
			t.Fatal("non-reflective wall produced a reflection")
		}
	}
}

func TestNewLinkScatterer(t *testing.T) {
	env := &Environment{Scatterers: []Scatterer{{Pos: geom.Point{X: 0, Y: 5}, LossDB: 10}}}
	ap := AP{Pos: geom.Point{X: 0, Y: 0}, NormalAngle: 0}
	target := geom.Point{X: 5, Y: 0}
	rng := rand.New(rand.NewSource(5))
	link := NewLink(env, ap, target, DefaultLinkConfig(), rng)
	var sc *Path
	for i := range link.Paths {
		if link.Paths[i].Kind == Scattered {
			sc = &link.Paths[i]
		}
	}
	if sc == nil {
		t.Fatal("no scattered path")
	}
	wantLen := math.Hypot(5, 5) + 5
	if math.Abs(sc.ToF*rf.SpeedOfLight-wantLen) > 1e-9 {
		t.Fatalf("scattered length = %v, want %v", sc.ToF*rf.SpeedOfLight, wantLen)
	}
	// Scattered path arrives from the scatterer: AoA = +90° off normal.
	if math.Abs(sc.AoA-math.Pi/2) > 1e-9 {
		t.Fatalf("scattered AoA = %v, want π/2", sc.AoA)
	}
}

func TestLinkPathOrderingAndCaps(t *testing.T) {
	env := testEnv()
	ap := AP{Pos: geom.Point{X: 2, Y: 5}, NormalAngle: 0}
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultLinkConfig()
	cfg.MaxPaths = 2
	link := NewLink(env, ap, geom.Point{X: 10, Y: 5}, cfg, rng)
	if len(link.Paths) > 2 {
		t.Fatalf("MaxPaths not enforced: %d paths", len(link.Paths))
	}
	for i := 1; i < len(link.Paths); i++ {
		if link.Paths[i].GainDBm > link.Paths[i-1].GainDBm {
			t.Fatal("paths not sorted by descending gain")
		}
	}
}

func TestLinkMinGainFloor(t *testing.T) {
	env := &Environment{}
	ap := AP{Pos: geom.Point{X: 0, Y: 0}}
	cfg := DefaultLinkConfig()
	cfg.MinGainDBm = 0 // impossible floor: everything dropped
	rng := rand.New(rand.NewSource(7))
	link := NewLink(env, ap, geom.Point{X: 5, Y: 0}, cfg, rng)
	if len(link.Paths) != 0 {
		t.Fatalf("MinGain floor not enforced: %d paths", len(link.Paths))
	}
}

func TestSynthesizerCleanSignalModel(t *testing.T) {
	// One path, no impairments: CSI must follow γ·Φ^m·Ω^n exactly.
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	env := &Environment{}
	ap := AP{Pos: geom.Point{X: 0, Y: 0}, NormalAngle: 0}
	target := geom.Point{X: 4, Y: 3}
	rng := rand.New(rand.NewSource(9))
	link := NewLink(env, ap, target, DefaultLinkConfig(), rng)
	syn, err := NewSynthesizer(link, band, array, CleanImpairments(), rng)
	if err != nil {
		t.Fatal(err)
	}
	pkt := syn.NextPacket("mac")

	p := link.Paths[0]
	phi := cmplx.Exp(complex(0, -2*math.Pi*array.SpacingM*math.Sin(p.AoA)*band.CarrierHz/rf.SpeedOfLight))
	omega := cmplx.Exp(complex(0, -2*math.Pi*band.SubcarrierSpacingHz*p.ToF))
	base := pkt.CSI.Values[0][0]
	if cmplx.Abs(base) == 0 {
		t.Fatal("zero CSI")
	}
	for m := 0; m < array.Antennas; m++ {
		for n := 0; n < band.Subcarriers; n++ {
			want := base
			for i := 0; i < m; i++ {
				want *= phi
			}
			for i := 0; i < n; i++ {
				want *= omega
			}
			got := pkt.CSI.Values[m][n]
			if cmplx.Abs(got-want) > 1e-9*cmplx.Abs(base) {
				t.Fatalf("CSI(%d,%d) = %v, want %v", m, n, got, want)
			}
		}
	}
}

func TestSynthesizerSTOCommonAcrossAntennas(t *testing.T) {
	// With detection delay only (no noise/quantization), the phase ramp
	// added on top of the clean model must be identical for all antennas.
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	env := &Environment{}
	ap := AP{Pos: geom.Point{X: 0, Y: 0}}
	rng := rand.New(rand.NewSource(10))
	link := NewLink(env, ap, geom.Point{X: 5, Y: 1}, DefaultLinkConfig(), rng)
	imp := CleanImpairments()
	imp.DetectionDelayMaxNs = 50
	syn, err := NewSynthesizer(link, band, array, imp, rng)
	if err != nil {
		t.Fatal(err)
	}
	pkt := syn.NextPacket("mac")
	// Ratio of subcarrier n to subcarrier 0 must be the same complex
	// factor on every antenna (single path ⇒ pure ramp; STO common).
	for n := 1; n < band.Subcarriers; n++ {
		r0 := pkt.CSI.Values[0][n] / pkt.CSI.Values[0][0]
		for m := 1; m < array.Antennas; m++ {
			rm := pkt.CSI.Values[m][n] / pkt.CSI.Values[m][0]
			if cmplx.Abs(r0-rm) > 1e-9 {
				t.Fatalf("STO ramp differs across antennas at subcarrier %d", n)
			}
		}
	}
}

func TestSynthesizerSTOChangesAcrossPackets(t *testing.T) {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	env := &Environment{}
	rng := rand.New(rand.NewSource(11))
	link := NewLink(env, AP{Pos: geom.Point{X: 0, Y: 0}}, geom.Point{X: 5, Y: 1}, DefaultLinkConfig(), rng)
	imp := CleanImpairments()
	imp.DetectionDelayMaxNs = 50
	imp.SFODriftNsPerPacket = 1
	syn, err := NewSynthesizer(link, band, array, imp, rng)
	if err != nil {
		t.Fatal(err)
	}
	p1 := syn.NextPacket("mac")
	p2 := syn.NextPacket("mac")
	// Subcarrier ramps differ between the packets (different STO).
	r1 := p1.CSI.Values[0][1] / p1.CSI.Values[0][0]
	r2 := p2.CSI.Values[0][1] / p2.CSI.Values[0][0]
	if cmplx.Abs(r1-r2) < 1e-12 {
		t.Fatal("STO did not change between packets")
	}
}

func TestSynthesizerRSSIPlausible(t *testing.T) {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	env := testEnv()
	rng := rand.New(rand.NewSource(12))
	link := NewLink(env, AP{Pos: geom.Point{X: 1, Y: 5}}, geom.Point{X: 10, Y: 5}, DefaultLinkConfig(), rng)
	syn, err := NewSynthesizer(link, band, array, DefaultImpairments(), rng)
	if err != nil {
		t.Fatal(err)
	}
	pkt := syn.NextPacket("mac")
	if pkt.RSSIdBm > -20 || pkt.RSSIdBm < -95 {
		t.Fatalf("implausible RSSI %v dBm", pkt.RSSIdBm)
	}
	if err := pkt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizerQuantization(t *testing.T) {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	env := &Environment{}
	rng := rand.New(rand.NewSource(13))
	link := NewLink(env, AP{Pos: geom.Point{X: 0, Y: 0}}, geom.Point{X: 5, Y: 1}, DefaultLinkConfig(), rng)
	imp := DefaultImpairments()
	syn, err := NewSynthesizer(link, band, array, imp, rng)
	if err != nil {
		t.Fatal(err)
	}
	pkt := syn.NextPacket("mac")
	for _, row := range pkt.CSI.Values {
		for _, v := range row {
			if real(v) != math.Trunc(real(v)) || imag(v) != math.Trunc(imag(v)) {
				t.Fatal("quantized CSI has fractional components")
			}
		}
	}
}

func TestSynthesizerErrors(t *testing.T) {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	rng := rand.New(rand.NewSource(14))
	if _, err := NewSynthesizer(nil, band, array, DefaultImpairments(), rng); err == nil {
		t.Fatal("nil link accepted")
	}
	if _, err := NewSynthesizer(&Link{}, band, array, DefaultImpairments(), rng); err == nil {
		t.Fatal("empty link accepted")
	}
	badBand := band
	badBand.Subcarriers = 1
	env := &Environment{}
	link := NewLink(env, AP{Pos: geom.Point{X: 0, Y: 0}}, geom.Point{X: 5, Y: 1}, DefaultLinkConfig(), rng)
	if _, err := NewSynthesizer(link, badBand, array, DefaultImpairments(), rng); err == nil {
		t.Fatal("bad band accepted")
	}
}

func TestBurstSequenceNumbers(t *testing.T) {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	env := &Environment{}
	rng := rand.New(rand.NewSource(15))
	link := NewLink(env, AP{ID: 3, Pos: geom.Point{X: 0, Y: 0}}, geom.Point{X: 5, Y: 1}, DefaultLinkConfig(), rng)
	syn, err := NewSynthesizer(link, band, array, DefaultImpairments(), rng)
	if err != nil {
		t.Fatal(err)
	}
	pkts := syn.Burst("mac", 5)
	for i, p := range pkts {
		if p.Seq != uint64(i) {
			t.Fatalf("packet %d has seq %d", i, p.Seq)
		}
		if p.APID != 3 {
			t.Fatalf("packet %d has APID %d", i, p.APID)
		}
	}
}

func TestPathKindString(t *testing.T) {
	if Direct.String() != "direct" || Reflected.String() != "reflected" ||
		Scattered.String() != "scattered" || PathKind(99).String() != "unknown" {
		t.Fatal("PathKind.String mismatch")
	}
}
