package csi

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 30)
	if m.Antennas() != 3 || m.Subcarriers() != 30 {
		t.Fatalf("got %dx%d", m.Antennas(), m.Subcarriers())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(0, 30)
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Values[1][2] = 5
	c := m.Clone()
	c.Values[1][2] = 7
	if m.Values[1][2] != 5 {
		t.Fatal("Clone shares storage")
	}
}

func TestValidateCatchesNaN(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Values[0][1] = complex(math.NaN(), 0)
	if err := m.Validate(); err == nil {
		t.Fatal("NaN entry not caught")
	}
	m2 := NewMatrix(2, 2)
	m2.Values[1][0] = complex(0, math.Inf(1))
	if err := m2.Validate(); err == nil {
		t.Fatal("Inf entry not caught")
	}
}

func TestValidateCatchesRagged(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Values[1] = m.Values[1][:2]
	if err := m.Validate(); err == nil {
		t.Fatal("ragged matrix not caught")
	}
}

func TestPower(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Values[0][0] = 3
	m.Values[0][1] = 4i
	if p := m.Power(); math.Abs(p-25) > 1e-12 {
		t.Fatalf("Power = %v, want 25", p)
	}
}

func TestPhaseAndUnwrap(t *testing.T) {
	// Build CSI with a steep linear phase ramp that wraps several times.
	m := NewMatrix(1, 30)
	slope := 1.9 // rad per subcarrier, wraps within 4 steps
	for n := 0; n < 30; n++ {
		m.Values[0][n] = cmplx.Exp(complex(0, slope*float64(n)))
	}
	un := m.Phase()[0]
	UnwrapInPlace(un)
	for n := 1; n < 30; n++ {
		d := un[n] - un[n-1]
		if math.Abs(d-slope) > 1e-9 {
			t.Fatalf("unwrapped increment %v at %d, want %v", d, n, slope)
		}
	}
}

func TestUnwrapNegativeSlope(t *testing.T) {
	phase := make([]float64, 20)
	slope := -2.5
	for n := range phase {
		phase[n] = math.Mod(slope*float64(n), 2*math.Pi)
		if phase[n] > math.Pi {
			phase[n] -= 2 * math.Pi
		} else if phase[n] <= -math.Pi {
			phase[n] += 2 * math.Pi
		}
	}
	UnwrapInPlace(phase)
	for n := 1; n < 20; n++ {
		if d := phase[n] - phase[n-1]; math.Abs(d-slope) > 1e-9 {
			t.Fatalf("negative-slope unwrap increment %v, want %v", d, slope)
		}
	}
}

func TestQuantizePreservesRelativeValues(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Values[0][0] = complex(1, -0.5)
	m.Values[0][1] = complex(0.25, 0.75)
	scale := m.Quantize()
	if scale <= 0 {
		t.Fatalf("scale = %v", scale)
	}
	// Max component must hit full range.
	if real(m.Values[0][0]) != 127 {
		t.Fatalf("largest component quantized to %v, want 127", real(m.Values[0][0]))
	}
	// Relative error after rescaling should be < 1 LSB.
	back := real(m.Values[0][1]) / scale
	if math.Abs(back-0.25) > 1/scale {
		t.Fatalf("dequantized 0.25 → %v", back)
	}
}

func TestQuantizeZeroMatrix(t *testing.T) {
	m := NewMatrix(2, 2)
	if s := m.Quantize(); s != 0 {
		t.Fatalf("zero matrix scale %v, want 0", s)
	}
}

func TestQuantizeIntegral(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewMatrix(3, 30)
	for a := range m.Values {
		for n := range m.Values[a] {
			m.Values[a][n] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	m.Quantize()
	for _, row := range m.Values {
		for _, v := range row {
			if real(v) != math.Trunc(real(v)) || imag(v) != math.Trunc(imag(v)) {
				t.Fatalf("non-integral quantized value %v", v)
			}
			if math.Abs(real(v)) > 127 || math.Abs(imag(v)) > 127 {
				t.Fatalf("quantized value %v out of int8 range", v)
			}
		}
	}
}

func TestQuickQuantizeBounded(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(22))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(1+rng.Intn(3), 1+rng.Intn(30))
		for a := range m.Values {
			for n := range m.Values[a] {
				m.Values[a][n] = complex(rng.NormFloat64()*100, rng.NormFloat64()*100)
			}
		}
		m.Quantize()
		for _, row := range m.Values {
			for _, v := range row {
				if math.Abs(real(v)) > 127.000001 || math.Abs(imag(v)) > 127.000001 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPacketValidate(t *testing.T) {
	good := &Packet{APID: 1, TargetMAC: "aa:bb", RSSIdBm: -40, CSI: NewMatrix(3, 30)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Packet{
		{TargetMAC: "aa", RSSIdBm: -40},                                 // nil CSI
		{TargetMAC: "", RSSIdBm: -40, CSI: NewMatrix(3, 30)},            // no MAC
		{TargetMAC: "aa", RSSIdBm: math.Inf(-1), CSI: NewMatrix(3, 30)}, // inf RSSI
		{TargetMAC: "aa", RSSIdBm: math.NaN(), CSI: NewMatrix(3, 30)},   // nan RSSI
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad packet %d validated", i)
		}
	}
}
