// Package music implements SpotFi's super-resolution estimator: the
// smoothed-CSI construction of Fig. 4 and 2-D MUSIC over joint (AoA, ToF)
// (paper Sec. 3.1.2, Algorithm 2 lines 4–7), plus the classic antenna-only
// MUSIC-AoA baseline used by ArrayTrack/Phaser (Sec. 3.1.1) that the paper
// compares against.
package music

import (
	"fmt"
	"math"

	"spotfi/internal/rf"
)

// Params configures the SpotFi joint AoA/ToF estimator.
type Params struct {
	// Band is the OFDM measurement grid CSI is reported on.
	Band rf.Band
	// Array is the AP antenna array.
	Array rf.Array

	// SubarrayAntennas and SubarraySubcarriers set the smoothing window
	// (Fig. 4 uses 2 antennas × 15 subcarriers for a 3×30 system).
	SubarrayAntennas    int
	SubarraySubcarriers int

	// AoAGridRad is the spectrum grid step over [−π/2, π/2].
	AoAGridRad float64
	// ToFGridS, ToFMinS, ToFMaxS define the ToF search grid. After ToF
	// sanitization the common linear phase is removed, so estimated ToFs
	// are centered near zero and may be negative — the grid must span
	// both signs.
	ToFGridS, ToFMinS, ToFMaxS float64

	// EigenThreshold separates signal from noise eigenvalues as a
	// fraction of the largest eigenvalue (Algorithm 2 line 5).
	EigenThreshold float64
	// MaxPaths caps the signal-subspace dimension and the number of
	// returned peaks.
	MaxPaths int

	// CoarseGridFactor multiplies both grid steps: the estimator sweeps
	// every cell of a grid with CoarseGridFactor× the AoAGridRad and
	// ToFGridS steps, about CoarseGridFactor² times cheaper. 0 and 1 both
	// sweep the configured grid.
	CoarseGridFactor int
}

// dedupeAoARad and dedupeToFS are the physical merge radii for
// near-duplicate spectrum peaks: a peak within both radii of a stronger
// one is dropped. They do not scale with the grid step, so the surviving
// peak set does not depend on grid resolution.
const (
	dedupeAoARad = 1.5 * math.Pi / 180
	dedupeToFS   = 3e-9
)

// DefaultParams returns the estimator configuration matching the paper's
// prototype: 2×15 smoothing window, 1° AoA grid, 2 ns ToF grid over
// ±200 ns.
func DefaultParams() Params {
	band := rf.DefaultBand()
	return Params{
		Band:                band,
		Array:               rf.DefaultArray(band),
		SubarrayAntennas:    2,
		SubarraySubcarriers: 15,
		AoAGridRad:          math.Pi / 180,
		ToFGridS:            2e-9,
		ToFMinS:             -200e-9,
		ToFMaxS:             200e-9,
		EigenThreshold:      0.015,
		MaxPaths:            5,
		CoarseGridFactor:    1,
	}
}

// Validate checks internal consistency of the parameters.
func (p Params) Validate() error {
	if err := p.Band.Validate(); err != nil {
		return err
	}
	if err := p.Array.Validate(); err != nil {
		return err
	}
	if p.SubarrayAntennas < 1 || p.SubarrayAntennas > p.Array.Antennas {
		return fmt.Errorf("music: subarray antennas %d out of range [1,%d]", p.SubarrayAntennas, p.Array.Antennas)
	}
	if p.SubarrayAntennas == p.Array.Antennas && p.SubarraySubcarriers == p.Band.Subcarriers {
		return fmt.Errorf("music: smoothing window equals full array; no independent measurements")
	}
	if p.SubarraySubcarriers < 2 || p.SubarraySubcarriers > p.Band.Subcarriers {
		return fmt.Errorf("music: subarray subcarriers %d out of range [2,%d]", p.SubarraySubcarriers, p.Band.Subcarriers)
	}
	if p.AoAGridRad <= 0 || p.ToFGridS <= 0 {
		return fmt.Errorf("music: grid steps must be positive")
	}
	if p.ToFMinS >= p.ToFMaxS {
		return fmt.Errorf("music: empty ToF range [%v,%v]", p.ToFMinS, p.ToFMaxS)
	}
	if p.EigenThreshold <= 0 || p.EigenThreshold >= 1 {
		return fmt.Errorf("music: eigen threshold %v must be in (0,1)", p.EigenThreshold)
	}
	if p.MaxPaths < 1 {
		return fmt.Errorf("music: MaxPaths must be ≥ 1")
	}
	if p.CoarseGridFactor < 0 {
		return fmt.Errorf("music: CoarseGridFactor %d must be ≥ 0", p.CoarseGridFactor)
	}
	return nil
}

// sweepGrid returns p with CoarseGridFactor folded into the AoA and ToF
// grid steps: the grid the estimator actually sweeps.
func (p Params) sweepGrid() Params {
	if k := p.CoarseGridFactor; k > 1 {
		p.AoAGridRad *= float64(k)
		p.ToFGridS *= float64(k)
	}
	return p
}

// PathEstimate is one resolved propagation path.
type PathEstimate struct {
	// AoA in radians relative to the array normal.
	AoA float64
	// ToF in seconds. On commodity hardware this is offset by the
	// (sanitized) sampling time offset: relative values across paths are
	// meaningful, absolute values are not (paper Sec. 3.2).
	ToF float64
	// Power is the MUSIC pseudo-spectrum value at the peak — a
	// sharpness measure, not physical power.
	Power float64
}
