// Package csi models the Channel State Information a commodity WiFi NIC
// reports per received packet: a complex matrix of per-antenna,
// per-subcarrier channel measurements plus RSSI and metadata, with the
// Intel-5300-style 8-bit quantization, phase utilities, and trace
// serialization SpotFi's pipeline consumes.
package csi

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNonFinite marks validation failures caused by NaN or Inf values —
// what a buggy NIC driver (or injected chaos) produces. Callers match it
// with errors.Is to count and drop such packets at the door instead of
// letting them propagate into MUSIC's eigendecomposition, and to
// distinguish bad values (drop the packet) from structural corruption
// (distrust the stream).
var ErrNonFinite = errors.New("non-finite value")

// Matrix holds CSI for one packet: Values[m][n] is the complex channel of
// antenna m at reported subcarrier n (the paper's csi_{m,n}, Eq. 5).
type Matrix struct {
	Values [][]complex128
}

// NewMatrix returns a zeroed antennas×subcarriers CSI matrix.
func NewMatrix(antennas, subcarriers int) *Matrix {
	if antennas <= 0 || subcarriers <= 0 {
		panic(fmt.Sprintf("csi: invalid CSI dimensions %dx%d", antennas, subcarriers))
	}
	v := make([][]complex128, antennas)
	backing := make([]complex128, antennas*subcarriers)
	for m := range v {
		v[m], backing = backing[:subcarriers:subcarriers], backing[subcarriers:]
	}
	return &Matrix{Values: v}
}

// Antennas returns the number of antenna rows.
//
//spotfi:noalloc
func (c *Matrix) Antennas() int { return len(c.Values) }

// Subcarriers returns the number of subcarrier columns.
//
//spotfi:noalloc
func (c *Matrix) Subcarriers() int {
	if len(c.Values) == 0 {
		return 0
	}
	return len(c.Values[0])
}

// Clone returns a deep copy.
func (c *Matrix) Clone() *Matrix {
	out := NewMatrix(c.Antennas(), c.Subcarriers())
	for m := range c.Values {
		copy(out.Values[m], c.Values[m])
	}
	return out
}

// Validate checks the matrix is rectangular, non-empty, and free of
// NaN/Inf entries.
func (c *Matrix) Validate() error {
	if len(c.Values) == 0 || len(c.Values[0]) == 0 {
		return fmt.Errorf("csi: empty matrix")
	}
	n := len(c.Values[0])
	for m, row := range c.Values {
		if len(row) != n {
			return fmt.Errorf("csi: ragged matrix: row %d has %d entries, want %d", m, len(row), n)
		}
		for k, v := range row {
			if math.IsNaN(real(v)) || math.IsNaN(imag(v)) || math.IsInf(real(v), 0) || math.IsInf(imag(v), 0) {
				return fmt.Errorf("csi: entry at antenna %d subcarrier %d: %w", m, k, ErrNonFinite)
			}
		}
	}
	return nil
}

// Power returns the total received power across all antennas and
// subcarriers (linear units).
func (c *Matrix) Power() float64 {
	var sum float64
	for _, row := range c.Values {
		for _, v := range row {
			sum += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return sum
}

// Phase returns the wrapped phase matrix, in radians.
func (c *Matrix) Phase() [][]float64 {
	out := make([][]float64, c.Antennas())
	for m, row := range c.Values {
		out[m] = make([]float64, len(row))
		for n, v := range row {
			out[m][n] = cmplx.Phase(v)
		}
	}
	return out
}

// UnwrapInPlace unwraps a phase sequence along its length.
func UnwrapInPlace(phase []float64) {
	for i := 1; i < len(phase); i++ {
		d := phase[i] - phase[i-1]
		for d > math.Pi {
			phase[i] -= 2 * math.Pi
			d = phase[i] - phase[i-1]
		}
		for d < -math.Pi {
			phase[i] += 2 * math.Pi
			d = phase[i] - phase[i-1]
		}
	}
}

// Quantize applies Intel-5300-style quantization in place: each I/Q
// component is scaled by the largest magnitude across the matrix to fit the
// signed 8-bit range and rounded. The common scale factor is returned so
// relative values — all SpotFi cares about — survive. A zero matrix is
// returned unchanged with scale 0.
func (c *Matrix) Quantize() float64 {
	var maxAbs float64
	for _, row := range c.Values {
		for _, v := range row {
			maxAbs = math.Max(maxAbs, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
		}
	}
	if maxAbs == 0 {
		return 0
	}
	scale := 127 / maxAbs
	for _, row := range c.Values {
		for n, v := range row {
			row[n] = complex(math.Round(real(v)*scale), math.Round(imag(v)*scale))
		}
	}
	return scale
}

// Packet is one CSI report: the measurement a (simulated) AP ships to the
// central server for one received frame.
type Packet struct {
	// APID identifies the reporting access point.
	APID int
	// TargetMAC identifies the transmitter.
	TargetMAC string
	// Seq is the packet sequence number at the AP.
	Seq uint64
	// TimestampNs is the AP-local receive timestamp.
	TimestampNs int64
	// RSSIdBm is the received signal strength for the frame.
	RSSIdBm float64
	// CSI is the per-antenna per-subcarrier channel matrix.
	CSI *Matrix
}

// Validate checks packet fields needed by the pipeline.
func (p *Packet) Validate() error {
	if p.CSI == nil {
		return fmt.Errorf("csi: packet without CSI matrix")
	}
	if err := p.CSI.Validate(); err != nil {
		return err
	}
	if p.TargetMAC == "" {
		return fmt.Errorf("csi: packet without target MAC")
	}
	if math.IsNaN(p.RSSIdBm) || math.IsInf(p.RSSIdBm, 0) {
		return fmt.Errorf("csi: RSSI: %w", ErrNonFinite)
	}
	return nil
}
