// Package plan evaluates AP deployment geometry before installation: for
// every floor position it computes the expected lower bound on SpotFi's
// localization error from bearing geometry alone (a geometric dilution of
// precision for AoA triangulation), producing the coverage maps a
// deployment planner needs. Fig. 9(a) of the paper measures how density
// changes accuracy; this package predicts the spatial structure of that
// effect.
package plan

import (
	"fmt"
	"math"

	"spotfi/internal/geom"
	"spotfi/internal/locate"
	"spotfi/internal/stats"
)

// AP is a planned access point pose.
type AP struct {
	Pos         geom.Point
	NormalAngle float64
}

// Config controls the evaluation.
type Config struct {
	// AoAStdRad is the assumed per-AP bearing error (1σ). SpotFi's LoS
	// median of ~5° suggests 0.09 rad.
	AoAStdRad float64
	// MaxRange drops APs farther than this from the evaluated point
	// (0 = unlimited): distant APs rarely hear the target.
	MaxRange float64
	// EndfireLimitRad drops APs whose bearing to the point exceeds this
	// magnitude relative to their array normal: a ULA has no resolution
	// at endfire. Default π/2 (no limit within the front half-plane).
	EndfireLimitRad float64
}

// DefaultConfig assumes SpotFi-grade bearings.
func DefaultConfig() Config {
	return Config{AoAStdRad: 0.09, MaxRange: 25, EndfireLimitRad: geom.Rad(75)}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.AoAStdRad <= 0 {
		return fmt.Errorf("plan: AoA std must be positive")
	}
	if c.MaxRange < 0 {
		return fmt.Errorf("plan: max range must be non-negative")
	}
	if c.EndfireLimitRad <= 0 || c.EndfireLimitRad > math.Pi/2+1e-9 {
		return fmt.Errorf("plan: endfire limit must be in (0, π/2]")
	}
	return nil
}

// ExpectedError returns the 1σ localization error bound (meters) for a
// target at p, from the Fisher information of the usable bearings: each AP
// measures the bearing angle with variance σ², contributing information
// (1/σ²d²) along the direction perpendicular to the line of sight. The
// bound is √trace(I⁻¹) — the position CRLB for AoA-only triangulation.
// It returns +Inf when fewer than two APs constrain the point (the
// information matrix is singular).
func ExpectedError(p geom.Point, aps []AP, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	var i11, i12, i22 float64
	usable := 0
	for _, ap := range aps {
		d := p.Dist(ap.Pos)
		if d < 1e-9 {
			continue // on top of the AP: bearing undefined
		}
		if cfg.MaxRange > 0 && d > cfg.MaxRange {
			continue
		}
		bearing := p.Sub(ap.Pos).Angle()
		if math.Abs(geom.NormalizeAngle(bearing-ap.NormalAngle)) > cfg.EndfireLimitRad {
			continue
		}
		// Unit vector perpendicular to the line of sight: the direction a
		// bearing error displaces the fix, with magnitude σ·d.
		ux := -math.Sin(bearing)
		uy := math.Cos(bearing)
		w := 1 / (cfg.AoAStdRad * cfg.AoAStdRad * d * d)
		i11 += w * ux * ux
		i12 += w * ux * uy
		i22 += w * uy * uy
		usable++
	}
	if usable < 2 {
		return math.Inf(1), nil
	}
	det := i11*i22 - i12*i12
	if det <= 1e-18 {
		return math.Inf(1), nil // collinear bearings: unobservable
	}
	// trace(I⁻¹) = (i11+i22)/det.
	return math.Sqrt((i11 + i22) / det), nil
}

// CoverageMap evaluates ExpectedError on a grid over bounds.
type CoverageMap struct {
	Bounds locate.Bounds
	StepM  float64
	// Xs, Ys are the grid coordinates; Err[i][j] the expected error at
	// (Xs[j], Ys[i]).
	Xs, Ys []float64
	Err    [][]float64
}

// Evaluate builds the coverage map.
func Evaluate(bounds locate.Bounds, stepM float64, aps []AP, cfg Config) (*CoverageMap, error) {
	if stepM <= 0 {
		return nil, fmt.Errorf("plan: step must be positive")
	}
	if bounds.MinX >= bounds.MaxX || bounds.MinY >= bounds.MaxY {
		return nil, fmt.Errorf("plan: empty bounds")
	}
	if len(aps) < 2 {
		return nil, fmt.Errorf("plan: need at least two APs")
	}
	cm := &CoverageMap{Bounds: bounds, StepM: stepM}
	for x := bounds.MinX + stepM/2; x < bounds.MaxX; x += stepM {
		cm.Xs = append(cm.Xs, x)
	}
	for y := bounds.MinY + stepM/2; y < bounds.MaxY; y += stepM {
		cm.Ys = append(cm.Ys, y)
	}
	for _, y := range cm.Ys {
		row := make([]float64, len(cm.Xs))
		for j, x := range cm.Xs {
			e, err := ExpectedError(geom.Point{X: x, Y: y}, aps, cfg)
			if err != nil {
				return nil, err
			}
			row[j] = e
		}
		cm.Err = append(cm.Err, row)
	}
	return cm, nil
}

// Summary reports coverage statistics: the fraction of grid points whose
// expected error is at most threshold, and the median finite expected
// error.
func (cm *CoverageMap) Summary(threshold float64) (coveredFrac, medianErr float64) {
	var finite []float64
	total, covered := 0, 0
	for _, row := range cm.Err {
		for _, e := range row {
			total++
			if math.IsInf(e, 1) {
				continue
			}
			finite = append(finite, e)
			if e <= threshold {
				covered++
			}
		}
	}
	if total == 0 {
		return 0, math.NaN()
	}
	coveredFrac = float64(covered) / float64(total)
	if len(finite) == 0 {
		return coveredFrac, math.NaN()
	}
	medianErr = stats.Median(finite)
	return coveredFrac, medianErr
}

// WorstCovered returns the position with the largest finite expected error
// — where to consider adding an AP.
func (cm *CoverageMap) WorstCovered() (geom.Point, float64) {
	worst := math.Inf(-1)
	var at geom.Point
	for i, row := range cm.Err {
		for j, e := range row {
			if !math.IsInf(e, 1) && e > worst {
				worst = e
				at = geom.Point{X: cm.Xs[j], Y: cm.Ys[i]}
			}
		}
	}
	return at, worst
}
