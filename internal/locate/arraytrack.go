package locate

import (
	"fmt"
	"math"

	"spotfi/internal/geom"
)

// SpectrumObservation is one AP's averaged AoA pseudo-spectrum — the input
// the ArrayTrack-style baseline localizer triangulates from.
type SpectrumObservation struct {
	Pos         geom.Point
	NormalAngle float64
	// Thetas is the AoA grid (radians, ascending); P the pseudo-spectrum
	// averaged over the packet burst.
	Thetas []float64
	P      []float64
}

// interp returns the spectrum value at angle theta by linear interpolation
// on the grid, clamping outside the grid.
func (s *SpectrumObservation) interp(theta float64) float64 {
	n := len(s.Thetas)
	if n == 0 {
		return 0
	}
	if theta <= s.Thetas[0] {
		return s.P[0]
	}
	if theta >= s.Thetas[n-1] {
		return s.P[n-1]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.Thetas[mid] <= theta {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (theta - s.Thetas[lo]) / (s.Thetas[hi] - s.Thetas[lo])
	return s.P[lo]*(1-f) + s.P[hi]*f
}

// The ArrayTrack baseline's two grid resolutions: a coarse sweep over the
// bounds followed by a fine sweep around the coarse maximum.
const (
	coarseStepM = 0.5
	fineStepM   = 0.1
)

// LocateArrayTrack implements the ArrayTrack likelihood-synthesis scheme:
// the location estimate maximizes Σ_i log P_i(θ̄_i(loc)) over the search
// region, i.e. the product of each AP's MUSIC spectrum evaluated at the
// bearing that location would produce, searched over b.
func LocateArrayTrack(obs []SpectrumObservation, b Bounds) (geom.Point, error) {
	if len(obs) < 2 {
		return geom.Point{}, fmt.Errorf("locate: ArrayTrack needs ≥2 APs, got %d", len(obs))
	}
	for i, o := range obs {
		if len(o.Thetas) < 2 || len(o.Thetas) != len(o.P) {
			return geom.Point{}, fmt.Errorf("locate: AP %d has malformed spectrum", i)
		}
	}
	if b.MinX >= b.MaxX || b.MinY >= b.MaxY {
		return geom.Point{}, fmt.Errorf("locate: empty bounds")
	}

	score := func(p geom.Point) float64 {
		var s float64
		for i := range obs {
			theta := foldAoA(p.Sub(obs[i].Pos).Angle() - obs[i].NormalAngle)
			v := obs[i].interp(theta)
			if v < 1e-12 {
				v = 1e-12
			}
			s += math.Log(v)
		}
		return s
	}

	best := geom.Point{X: b.MinX, Y: b.MinY}
	bestScore := math.Inf(-1)
	for x := b.MinX; x <= b.MaxX; x += coarseStepM {
		for y := b.MinY; y <= b.MaxY; y += coarseStepM {
			p := geom.Point{X: x, Y: y}
			if s := score(p); s > bestScore {
				best, bestScore = p, s
			}
		}
	}
	// Fine sweep around the coarse maximum.
	fineBounds := Bounds{
		MinX: math.Max(b.MinX, best.X-coarseStepM),
		MaxX: math.Min(b.MaxX, best.X+coarseStepM),
		MinY: math.Max(b.MinY, best.Y-coarseStepM),
		MaxY: math.Min(b.MaxY, best.Y+coarseStepM),
	}
	for x := fineBounds.MinX; x <= fineBounds.MaxX; x += fineStepM {
		for y := fineBounds.MinY; y <= fineBounds.MaxY; y += fineStepM {
			p := geom.Point{X: x, Y: y}
			if s := score(p); s > bestScore {
				best, bestScore = p, s
			}
		}
	}
	return best, nil
}
