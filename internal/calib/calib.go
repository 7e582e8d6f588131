// Package calib estimates and removes per-antenna phase calibration
// offsets. Commodity NICs have unknown static phase offsets between RF
// chains that bias every AoA estimate (the problem Phaser, MobiCom'14, is
// built around); SpotFi-style deployments calibrate them once using a
// beacon at a known bearing. This package implements that procedure on
// CSI bursts.
package calib

import (
	"fmt"
	"math"
	"math/cmplx"

	"spotfi/internal/csi"
	"spotfi/internal/music"
	"spotfi/internal/rf"
)

// Offsets are per-antenna phase corrections in radians, relative to
// antenna 0 (Offsets[0] == 0).
type Offsets []float64

// Estimate computes per-antenna phase offsets from bursts received from a
// beacon whose AoA at the AP is known (a strongly line-of-sight
// placement). The model is measured[m][n] = e^{jδ_m}·ideal[m][n]; with a
// dominant direct path the ideal inter-antenna factor is Φ(knownAoA), so
//
//	δ_{m+1} − δ_m = arg Σ_{pkts,n} csi[m+1][n]·conj(csi[m][n]) − arg Φ(knownAoA).
//
// The sum is power-weighted, so faded subcarriers and weak packets
// contribute little. At least one packet is required.
func Estimate(bursts []*csi.Packet, knownAoA float64, band rf.Band, array rf.Array) (Offsets, error) {
	if err := band.Validate(); err != nil {
		return nil, err
	}
	if err := array.Validate(); err != nil {
		return nil, err
	}
	if len(bursts) == 0 {
		return nil, fmt.Errorf("calib: no calibration packets")
	}
	m := array.Antennas
	acc := make([]complex128, m-1)
	used := 0
	for _, p := range bursts {
		if p == nil || p.CSI == nil {
			continue
		}
		if p.CSI.Antennas() != m || p.CSI.Subcarriers() != band.Subcarriers {
			return nil, fmt.Errorf("calib: packet CSI is %dx%d, want %dx%d",
				p.CSI.Antennas(), p.CSI.Subcarriers(), m, band.Subcarriers)
		}
		if err := p.CSI.Validate(); err != nil {
			continue
		}
		for a := 0; a < m-1; a++ {
			for n := 0; n < band.Subcarriers; n++ {
				acc[a] += p.CSI.Values[a+1][n] * cmplx.Conj(p.CSI.Values[a][n])
			}
		}
		used++
	}
	if used == 0 {
		return nil, fmt.Errorf("calib: no usable calibration packets")
	}
	ideal := music.Phi(knownAoA, array, band)
	idealArg := cmplx.Phase(ideal)

	out := make(Offsets, m)
	for a := 0; a < m-1; a++ {
		if acc[a] == 0 {
			return nil, fmt.Errorf("calib: zero cross-power between antennas %d and %d", a, a+1)
		}
		step := cmplx.Phase(acc[a]) - idealArg
		// Offsets chain: δ_{a+1} = δ_a + step, wrapped to (−π, π].
		out[a+1] = wrap(out[a] + step)
	}
	return out, nil
}

// Apply removes the offsets from a CSI matrix in place: each antenna row m
// is multiplied by e^{−jδ_m}.
func Apply(c *csi.Matrix, off Offsets) error {
	if c == nil {
		return fmt.Errorf("calib: nil CSI")
	}
	if len(off) != c.Antennas() {
		return fmt.Errorf("calib: %d offsets for %d antennas", len(off), c.Antennas())
	}
	for m := range c.Values {
		rot := cmplx.Exp(complex(0, -off[m]))
		for n := range c.Values[m] {
			c.Values[m][n] *= rot
		}
	}
	return nil
}

// wrap maps an angle into (−π, π] in closed form; repeated ±2π
// subtraction would compound rounding error per step.
func wrap(a float64) float64 {
	a = math.Mod(a, 2*math.Pi) // exact: Mod introduces no rounding error
	if a > math.Pi {
		a -= 2 * math.Pi
	} else if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
