// Package locate implements SpotFi's localization stage (paper Sec. 3.3):
// given each AP's direct-path AoA, likelihood weight, and observed RSSI, it
// finds the target location minimizing the likelihood-weighted least-squares
// objective of Eq. 9 jointly with the path loss intercept, using the
// multi-start linearize-and-descend scheme the paper calls sequential convex
// optimization. It also implements the ArrayTrack-style baseline localizer
// (spectrum-synthesis triangulation) the evaluation compares against.
package locate

import (
	"fmt"
	"math"

	"spotfi/internal/geom"
	"spotfi/internal/rf"
)

// APObservation is the localization input from one AP.
type APObservation struct {
	// Pos is the AP location; NormalAngle is the direction the array
	// broadside faces (radians from +X).
	Pos         geom.Point
	NormalAngle float64
	// AoA is the selected direct-path AoA in radians relative to the
	// array normal.
	AoA float64
	// RSSIdBm is the mean observed RSSI for the burst.
	RSSIdBm float64
	// Likelihood is the direct-path likelihood l_i weighting this AP's
	// residuals in Eq. 9.
	Likelihood float64
}

// Bounds is the rectangular search region.
type Bounds struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies inside the bounds.
func (b Bounds) Contains(p geom.Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Clamp projects p onto the bounds.
func (b Bounds) Clamp(p geom.Point) geom.Point {
	return geom.Point{
		X: math.Max(b.MinX, math.Min(b.MaxX, p.X)),
		Y: math.Max(b.MinY, math.Min(b.MaxY, p.Y)),
	}
}

// Config controls the SpotFi localizer.
type Config struct {
	// Bounds is the search region (the floor plan extent).
	Bounds Bounds
	// FitIntercept re-estimates the path loss intercept P0 of the
	// rf.DefaultPathLoss prior from the observations at every iterate (the
	// "path loss model parameters" of Algorithm 2 line 12). The exponent
	// stays at the prior.
	FitIntercept bool
	// RSSIWeightDB2 scales the RSSI residuals of Eq. 9 (dB) onto the
	// footing of the AoA residuals (radians, weight aoaWeightRad2). Zero
	// localizes from bearings alone.
	RSSIWeightDB2 float64
	// RobustRounds applies iteratively-reweighted least squares after the
	// first solve: each round scales every AP's likelihood by
	// 1/(1+(AoA residual/robustScaleRad)²) and re-solves, so an AP whose
	// selected "direct path" disagrees wildly with the consensus location
	// is suppressed — the paper's intuition that low-confidence APs
	// "effectively not be considered" (Sec. 4.4.3). 0 disables.
	RobustRounds int
}

// Solver constants.
const (
	// aoaWeightRad2 weights the AoA residuals of Eq. 9.
	aoaWeightRad2 = 1
	// gridStepM is the coarse multi-start grid pitch.
	gridStepM = 1.0
	// starts is how many best coarse cells seed descent.
	starts = 5
	// maxIters bounds descent iterations per start.
	maxIters = 60
	// robustScaleRad is the AoA residual scale of the robust reweighting.
	robustScaleRad = 0.15
)

// DefaultConfig returns a localizer configuration for bounds b.
func DefaultConfig(b Bounds) Config {
	return Config{
		Bounds:       b,
		FitIntercept: true,
		// RSSI deviates from the log-distance model by several dB under
		// multipath fading, so it acts as a weak prior: 20 dB of RSSI
		// error ≙ 1 rad of AoA error. Eq. 9 weights both classes; the
		// paper leaves the relative scale as an implementation choice.
		RSSIWeightDB2: 1.0 / 400.0,
		RobustRounds:  2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Bounds.MinX >= c.Bounds.MaxX || c.Bounds.MinY >= c.Bounds.MaxY {
		return fmt.Errorf("locate: empty bounds %+v", c.Bounds)
	}
	if c.RSSIWeightDB2 < 0 {
		return fmt.Errorf("locate: RSSI weight must be non-negative")
	}
	return nil
}

// Result is the localizer output.
type Result struct {
	// Location is the estimated target position.
	Location geom.Point
	// Objective is the final Eq. 9 value.
	Objective float64
	// PathLoss is the fitted model at the solution.
	PathLoss rf.PathLoss
	// Iters is the total number of Gauss–Newton iterations spent across
	// all starts and robust rounds — a convergence diagnostic for traces.
	Iters int
	// AoAResid holds each input observation's direct-path AoA residual at
	// the solution (predicted − observed, wrapped), in the order the
	// observations were passed in. NaN for observations with non-positive
	// likelihood. It is the cross-AP agreement signal quality scoring and
	// drift detection consume.
	AoAResid []float64
}

// foldAoA maps an angle onto the ULA-observable range [−π/2, π/2].
func foldAoA(theta float64) float64 {
	return math.Asin(math.Sin(geom.NormalizeAngle(theta)))
}

// predictAoA returns the AoA that AP obs would observe for a target at p.
func predictAoA(obs APObservation, p geom.Point) float64 {
	return foldAoA(p.Sub(obs.Pos).Angle() - obs.NormalAngle)
}

// Locate minimizes Eq. 9. It needs at least two APs with positive
// likelihood; with fewer the problem is unobservable.
func Locate(obs []APObservation, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var usable int
	for _, o := range obs {
		if o.Likelihood > 0 {
			usable++
		}
		if math.IsNaN(o.AoA) || math.IsNaN(o.RSSIdBm) || math.IsNaN(o.Likelihood) {
			return Result{}, fmt.Errorf("locate: non-finite observation")
		}
	}
	if usable < 2 {
		return Result{}, fmt.Errorf("locate: need ≥2 APs with positive likelihood, got %d", usable)
	}

	// Nearly collinear AP layouts (e.g. a corridor with APs along one
	// wall) give nearly parallel bearings, so angle-only localization is
	// ill-conditioned along the array axis and range information must
	// carry the estimate.
	cfg.RSSIWeightDB2 *= rssiGeometryBoost(obs)

	// Normalize likelihoods so the objective scale is comparable across
	// bursts (Eq. 9 is invariant to a common factor).
	var maxL float64
	for _, o := range obs {
		maxL = math.Max(maxL, o.Likelihood)
	}
	normObs := make([]APObservation, len(obs))
	copy(normObs, obs)
	for i := range normObs {
		normObs[i].Likelihood /= maxL
	}

	// Multi-start: evaluate the objective on a coarse grid, seed descent
	// from the best cells. This is the "convexify piecewise" part: each
	// descent solves a sequence of local quadratic models.
	type seed struct {
		p geom.Point
		f float64
	}
	var seeds []seed
	model := rf.DefaultPathLoss()
	for x := cfg.Bounds.MinX + gridStepM/2; x <= cfg.Bounds.MaxX; x += gridStepM {
		for y := cfg.Bounds.MinY + gridStepM/2; y <= cfg.Bounds.MaxY; y += gridStepM {
			p := geom.Point{X: x, Y: y}
			m := model
			if cfg.FitIntercept {
				m = refitModel(normObs, p)
			}
			seeds = append(seeds, seed{p, objective(normObs, p, m, cfg)})
		}
	}
	if len(seeds) == 0 {
		return Result{}, fmt.Errorf("locate: empty search grid")
	}
	// Partial selection of the best seeds.
	nStarts := starts
	if nStarts > len(seeds) {
		nStarts = len(seeds)
	}
	for i := 0; i < nStarts; i++ {
		best := i
		for j := i + 1; j < len(seeds); j++ {
			if seeds[j].f < seeds[best].f {
				best = j
			}
		}
		seeds[i], seeds[best] = seeds[best], seeds[i]
	}

	bestRes := Result{Objective: math.Inf(1), PathLoss: model}
	totalIters := 0
	for i := 0; i < nStarts; i++ {
		res := descend(normObs, seeds[i].p, cfg)
		totalIters += res.Iters
		if res.Objective < bestRes.Objective {
			bestRes = res
		}
	}
	if math.IsInf(bestRes.Objective, 1) {
		return Result{}, fmt.Errorf("locate: optimization failed to produce a finite objective")
	}

	// Robust refinement: suppress APs whose AoA disagrees with the
	// consensus and re-solve from the current estimate.
	for round := 0; round < cfg.RobustRounds; round++ {
		rw := make([]APObservation, len(normObs))
		copy(rw, normObs)
		usable = 0
		for i := range rw {
			if rw[i].Likelihood <= 0 {
				continue
			}
			res := geom.NormalizeAngle(predictAoA(rw[i], bestRes.Location) - rw[i].AoA)
			rw[i].Likelihood /= 1 + (res/robustScaleRad)*(res/robustScaleRad)
			usable++
		}
		if usable < 2 {
			break
		}
		refined := descend(rw, bestRes.Location, cfg)
		totalIters += refined.Iters
		// Track the refined location; objectives across rounds are not
		// comparable (the weights changed), so accept unconditionally.
		bestRes = refined
	}
	bestRes.Iters = totalIters
	bestRes.AoAResid = make([]float64, len(obs))
	for i, o := range obs {
		if o.Likelihood <= 0 {
			bestRes.AoAResid[i] = math.NaN()
			continue
		}
		bestRes.AoAResid[i] = geom.NormalizeAngle(predictAoA(o, bestRes.Location) - o.AoA)
	}
	return bestRes, nil
}

// rssiGeometryBoost returns the RSSI-weight multiplier 1 + 7·(1−ρ)⁶ from
// the anisotropy ρ of the AP layout (minor/major eigenvalue ratio of the
// AP-position covariance): isotropic layouts (ρ→1) are unaffected,
// collinear ones (ρ→0) get an 8× boost.
func rssiGeometryBoost(obs []APObservation) float64 {
	if len(obs) < 2 {
		return 1
	}
	var mx, my float64
	for _, o := range obs {
		mx += o.Pos.X
		my += o.Pos.Y
	}
	n := float64(len(obs))
	mx /= n
	my /= n
	var sxx, syy, sxy float64
	for _, o := range obs {
		dx, dy := o.Pos.X-mx, o.Pos.Y-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	// Eigenvalues of the 2×2 covariance.
	tr := sxx + syy
	if tr <= 0 {
		return 1
	}
	disc := math.Sqrt((sxx-syy)*(sxx-syy) + 4*sxy*sxy)
	major := (tr + disc) / 2
	minor := (tr - disc) / 2
	if major <= 0 {
		return 1
	}
	rho := minor / major
	if rho < 0 {
		rho = 0
	}
	d := 1 - rho
	d2 := d * d
	return 1 + 7*d2*d2*d2
}

// objective evaluates Eq. 9 at p under path loss model m.
func objective(obs []APObservation, p geom.Point, m rf.PathLoss, cfg Config) float64 {
	var sum float64
	for _, o := range obs {
		if o.Likelihood <= 0 {
			continue
		}
		dAoA := geom.NormalizeAngle(predictAoA(o, p) - o.AoA)
		dRSSI := m.RSSIdBm(p.Dist(o.Pos)) - o.RSSIdBm
		sum += o.Likelihood * (aoaWeightRad2*dAoA*dAoA + cfg.RSSIWeightDB2*dRSSI*dRSSI)
	}
	return sum
}

// refitModel returns the rf.DefaultPathLoss prior with its intercept P0
// set to the weighted least-squares optimum for a target at p: the
// weighted mean of rssi − n·x over x = −10·log10(d/d0).
func refitModel(obs []APObservation, p geom.Point) rf.PathLoss {
	model := rf.DefaultPathLoss()
	var sw, swx, swy float64
	for _, o := range obs {
		if o.Likelihood <= 0 {
			continue
		}
		d := p.Dist(o.Pos)
		if d < model.RefDistM {
			d = model.RefDistM
		}
		x := -10 * math.Log10(d/model.RefDistM)
		w := o.Likelihood
		sw += w
		swx += w * x
		swy += w * o.RSSIdBm
	}
	if sw <= 0 {
		return model
	}
	model.P0dBm = (swy - model.Exponent*swx) / sw
	return model
}

// descend runs damped Gauss–Newton with numerical Jacobians from start.
func descend(obs []APObservation, start geom.Point, cfg Config) Result {
	p := start
	model := rf.DefaultPathLoss()
	if cfg.FitIntercept {
		model = refitModel(obs, p)
	}
	f := objective(obs, p, model, cfg)
	lambda := 1e-3
	iters := 0
	const h = 1e-4 // meters, for central differences

	for iter := 0; iter < maxIters; iter++ {
		iters++
		// Gradient and Gauss–Newton Hessian approximation from residuals.
		var g [2]float64
		var hess [2][2]float64
		for _, o := range obs {
			if o.Likelihood <= 0 {
				continue
			}
			// Two residuals per AP: rA = √(l·wA)·Δθ, rP = √(l·wP)·ΔRSSI.
			wA := math.Sqrt(o.Likelihood * aoaWeightRad2)
			wP := math.Sqrt(o.Likelihood * cfg.RSSIWeightDB2)
			rA := func(q geom.Point) float64 {
				return wA * geom.NormalizeAngle(predictAoA(o, q)-o.AoA)
			}
			rP := func(q geom.Point) float64 {
				return wP * (model.RSSIdBm(q.Dist(o.Pos)) - o.RSSIdBm)
			}
			for _, res := range []func(geom.Point) float64{rA, rP} {
				r0 := res(p)
				jx := (res(geom.Point{X: p.X + h, Y: p.Y}) - res(geom.Point{X: p.X - h, Y: p.Y})) / (2 * h)
				jy := (res(geom.Point{X: p.X, Y: p.Y + h}) - res(geom.Point{X: p.X, Y: p.Y - h})) / (2 * h)
				g[0] += jx * r0
				g[1] += jy * r0
				hess[0][0] += jx * jx
				hess[0][1] += jx * jy
				hess[1][1] += jy * jy
			}
		}
		hess[1][0] = hess[0][1]

		// Levenberg–Marquardt step: (H + λ·diag(H))·δ = −g.
		improved := false
		for try := 0; try < 8; try++ {
			a00 := hess[0][0] * (1 + lambda)
			a11 := hess[1][1] * (1 + lambda)
			a01 := hess[0][1]
			det := a00*a11 - a01*a01
			if math.Abs(det) < 1e-18 {
				lambda *= 10
				continue
			}
			dx := (-g[0]*a11 + g[1]*a01) / det
			dy := (-g[1]*a00 + g[0]*a01) / det
			cand := cfg.Bounds.Clamp(geom.Point{X: p.X + dx, Y: p.Y + dy})
			candModel := model
			if cfg.FitIntercept {
				candModel = refitModel(obs, cand)
			}
			fc := objective(obs, cand, candModel, cfg)
			if fc < f {
				p, f, model = cand, fc, candModel
				lambda = math.Max(lambda/4, 1e-9)
				improved = true
				break
			}
			lambda *= 10
		}
		if !improved {
			break
		}
		if math.Hypot(g[0], g[1]) < 1e-10 {
			break
		}
	}
	return Result{Location: p, Objective: f, PathLoss: model, Iters: iters}
}
