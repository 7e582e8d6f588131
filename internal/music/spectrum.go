package music

import (
	"fmt"
	"math"
	"math/cmplx"

	"spotfi/internal/cmat"
	"spotfi/internal/csi"
)

// Spectrum is an evaluated 2-D MUSIC pseudo-spectrum P(θ, τ).
type Spectrum struct {
	// Thetas are the AoA grid points in radians.
	Thetas []float64
	// Taus are the ToF grid points in seconds.
	Taus []float64
	// P[i][j] is the pseudo-spectrum at (Thetas[i], Taus[j]).
	P [][]float64
}

// Estimator runs SpotFi's joint AoA/ToF super-resolution on single-packet
// CSI matrices.
//
// Concurrency contract: an Estimator owns mutable workspace arenas (the
// smoothed-CSI matrix, the eigendecomposition scratch, the spectrum), so
// it is single-goroutine — one goroutine per Estimator at a time. The
// expensive pure-geometry precomputation (grids and steering powers) lives
// in a shared read-only steeringTable obtained from the package steering
// cache, so constructing extra estimators for extra goroutines is cheap;
// callers that fan out across goroutines should keep a pool of estimators
// (see the localizer's sync.Pool).
//
//spotfi:arena
type Estimator struct {
	p   Params
	tab *steeringTable

	// thetas and taus alias the shared table's grids (read-only).
	thetas []float64
	taus   []float64

	// Workspace arenas, reused across calls. Everything below is reset or
	// overwritten by each estimate; nothing escapes to callers.
	smooth *cmat.Matrix
	gram   *cmat.Matrix
	eigWS  cmat.TopEigenWorkspace

	// vecs/cut are the signal eigenvectors of the current packet,
	// borrowed from eigWS between eigendecomposition and sweep.
	vecs [][]complex128
	cut  int

	// w[k*subAnt+a] = v_k[a-th block]ᴴ·o(τ) for the column being
	// evaluated.
	w []complex128
	// colQ holds the off-diagonal block quadratic forms q_ab(τ_j) of the
	// column being evaluated, shared by every θ in it.
	colQ []complex128

	// specP is the spectrum arena, column-major: P(θ_i, τ_j) is
	// specP[j*len(thetas)+i], so each ToF column is contiguous.
	specP []float64

	// Peak-finding scratch.
	scratch []PathEstimate
}

// NewEstimator validates p and binds the shared precomputed steering
// table, allocating the estimator-owned workspace arenas.
// CoarseGridFactor is folded into the table's grid steps here, so every
// estimator sweeps its whole grid through the same code path.
func NewEstimator(p Params) (*Estimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.sweepGrid()
	tab := lookupSteeringTable(g)
	nt, nu := len(tab.thetas), len(tab.taus)
	return &Estimator{
		p:       p,
		tab:     tab,
		thetas:  tab.thetas,
		taus:    tab.taus,
		w:       make([]complex128, p.MaxPaths*tab.subAnt),
		colQ:    make([]complex128, tab.nPair),
		specP:   make([]float64, nt*nu),
		scratch: make([]PathEstimate, 0, 32),
	}, nil
}

// Params returns the estimator configuration.
func (e *Estimator) Params() Params { return e.p }

// EstimatePaths returns the multipath (AoA, ToF) estimates for one CSI
// matrix: Algorithm 2 lines 4–7. Estimates are sorted by descending
// spectrum power. The number of returned paths is the estimated signal
// subspace dimension (≤ MaxPaths). The returned slice is freshly
// allocated and owned by the caller.
func (e *Estimator) EstimatePaths(c *csi.Matrix) ([]PathEstimate, error) {
	paths, _, err := e.EstimatePathsDiag(c)
	return paths, err
}

// EstimatePathsDiag is EstimatePaths plus per-packet DSP diagnostics for
// burst tracing. The Diag is valid only when err is nil.
func (e *Estimator) EstimatePathsDiag(c *csi.Matrix) ([]PathEstimate, Diag, error) {
	dim, eig, err := e.sweep(c)
	if err != nil {
		return nil, Diag{}, err
	}
	peaks := e.findPeaks(dim)
	d := Diag{
		EigenSweeps: eig.Sweeps,
		SignalDim:   dim,
		EigenGapDB:  eigenGapDB(eig.Values, dim),
		GridTheta:   len(e.thetas),
		GridTau:     len(e.taus),
		Peaks:       len(peaks),
		CellsSwept:  len(e.specP),
	}
	out := make([]PathEstimate, len(peaks))
	copy(out, peaks)
	return out, d, nil
}

// Spectrum evaluates the 2-D pseudo-spectrum for one CSI matrix. It is
// what CUPID-style max-power selection and diagnostics consume. The
// returned spectrum is a fresh row-major copy, unaffected by later
// estimator calls.
func (e *Estimator) Spectrum(c *csi.Matrix) (*Spectrum, error) {
	if _, _, err := e.sweep(c); err != nil {
		return nil, err
	}
	nt, nu := len(e.thetas), len(e.taus)
	spec := &Spectrum{Thetas: e.thetas, Taus: e.taus, P: make([][]float64, nt)}
	flat := make([]float64, nt*nu)
	for i := range spec.P {
		row := flat[i*nu : (i+1)*nu]
		for j := range row {
			row[j] = e.specP[j*nt+i]
		}
		spec.P[i] = row
	}
	return spec, nil //lint:allow arenaescape Thetas/Taus alias the immutable shared steering table, safe to hold
}

// sweep runs the front half of the pipeline — smoothing, covariance,
// eigendecomposition — then evaluates the pseudo-spectrum on every grid
// cell into specP.
//
//spotfi:noalloc
func (e *Estimator) sweep(c *csi.Matrix) (int, *cmat.EigenDecomposition, error) {
	if err := c.Validate(); err != nil { //lint:allow noalloc rejection path; a malformed packet never reaches the sweep twice
		return 0, nil, err
	}
	if c.Antennas() != e.p.Array.Antennas || c.Subcarriers() != e.p.Band.Subcarriers {
		return 0, nil, fmt.Errorf("music: CSI is %dx%d, estimator expects %dx%d", //lint:allow noalloc rejection path; a mis-sized packet never reaches the sweep twice
			c.Antennas(), c.Subcarriers(), e.p.Array.Antennas, e.p.Band.Subcarriers)
	}
	e.smooth = SmoothCSIInto(c, e.p.SubarrayAntennas, e.p.SubarraySubcarriers, e.smooth)
	e.gram = cmat.Reshape(e.gram, e.smooth.Rows(), e.smooth.Rows())
	e.smooth.GramInto(e.gram)
	// Only the top MaxPaths+1 eigenpairs matter: MaxPaths caps the signal
	// dimension, and one extra value below the cut supplies the
	// signal/noise threshold split and the eigen-gap diagnostic. The
	// sweep never touches noise eigenvectors — columnQ projects through
	// the signal subspace complement.
	eig, err := cmat.TopEigenInto(e.gram, e.p.MaxPaths+1, e.p.EigenThreshold, &e.eigWS)
	if err != nil {
		return 0, nil, fmt.Errorf("music: covariance eigendecomposition: %w", err) //lint:allow noalloc corrupt-covariance path, cold by construction
	}
	dim := eig.SignalDimension(e.p.EigenThreshold, e.p.MaxPaths)
	e.cut = eig.SignalCut(e.p.EigenThreshold, e.p.MaxPaths)
	e.vecs = eig.Vectors[:e.cut]

	// P(θ_i, τ_j) = 1 / (q_d(τ_j) + 2·Σ_c Re(pair_c(θ_i)·q_c(τ_j))): the
	// Kronecker decomposition of Eq. 7 reduces each cell to nPair complex
	// multiplies against the per-theta antenna pair products. Each column
	// first accumulates the cross sum in place, pair by pair, then turns
	// it into P. Slices resliced to len(col) let the compiler drop the
	// inner loops' bounds checks.
	nt := len(e.thetas)
	for j := range e.taus {
		qd := e.columnQ(j)
		col := e.specP[j*nt : (j+1)*nt]
		clear(col)
		for c, qc := range e.colQ {
			pc := e.tab.pair[c*nt : (c+1)*nt][:len(col)]
			qr, qi := real(qc), imag(qc)
			for i, pr := range pc {
				col[i] += real(pr)*qr - imag(pr)*qi
			}
		}
		for i, cross := range col {
			denom := qd + 2*cross
			if denom < 1e-18 {
				denom = 1e-18
			}
			col[i] = 1 / denom
		}
	}
	return dim, eig, nil
}

// columnQ computes the block quadratic forms of column j: it returns the
// diagonal sum Σ_a q_aa and leaves the off-diagonal q_ab for a<b in colQ.
// Rather than materializing the noise projector E_N·E_Nᴴ, it uses the
// complement identity P_N = I − Σ_k v_k·v_kᴴ over the few signal
// eigenvectors: q_ab = δ_ab·‖o‖² − Σ_k conj(w_ka)·w_kb with
// w_ka = v_k[block a]ᴴ·o(τ_j).
//
//spotfi:noalloc
func (e *Estimator) columnQ(j int) float64 {
	subAnt, subSub := e.tab.subAnt, e.tab.subSub
	o := e.tab.omega[j*subSub : (j+1)*subSub]
	w := e.w[:e.cut*subAnt]
	for k, v := range e.vecs {
		for a := 0; a < subAnt; a++ {
			blk := v[a*subSub : (a+1)*subSub]
			var sum complex128
			for s, os := range o {
				sum += cmplx.Conj(blk[s]) * os
			}
			w[k*subAnt+a] = sum
		}
	}
	qd := float64(subAnt) * e.tab.omegaNorm[j]
	for _, wv := range w {
		qd -= real(wv)*real(wv) + imag(wv)*imag(wv)
	}
	c := 0
	for a := 0; a < subAnt; a++ {
		for b := a + 1; b < subAnt; b++ {
			var sum complex128
			for k := 0; k < e.cut; k++ {
				sum += cmplx.Conj(w[k*subAnt+a]) * w[k*subAnt+b]
			}
			e.colQ[c] = -sum
			c++
		}
	}
	return qd
}

// findPeaks locates the 8-neighbour local maxima of the swept spectrum,
// refines them with per-axis quadratic interpolation, merges
// near-duplicates by physical distance, and returns the top count peaks by
// power (in the estimator's scratch arena).
//
// Grid-edge cells are excluded: a maximum at the ±90° AoA edge (array
// endfire, where a ULA has no resolution) or at the ToF search boundary is
// a truncation artifact, not a resolvable path, and its packet-to-packet
// repeatability would otherwise fabricate a spuriously tight cluster.
//
//spotfi:noalloc
func (e *Estimator) findPeaks(count int) []PathEstimate {
	nt, nu := len(e.thetas), len(e.taus)
	peaks := e.scratch[:0]
	// Walk column by column. The AoA neighbours in the same column are
	// tested first: they reject all but the column's few 1-D maxima.
	for j := 1; j < nu-1; j++ {
		col := e.specP[j*nt : (j+1)*nt]
		prev := e.specP[(j-1)*nt : j*nt][:len(col)]
		next := e.specP[(j+1)*nt : (j+2)*nt][:len(col)]
		for i := 1; i < len(col)-1; i++ {
			v := col[i]
			if col[i-1] > v || col[i+1] > v ||
				prev[i-1] > v || prev[i] > v || prev[i+1] > v ||
				next[i-1] > v || next[i] > v || next[i+1] > v {
				continue
			}
			peaks = e.appendRefined(peaks, i, j, v)
		}
	}
	sortPeaksByPower(peaks)
	peaks = dedupePeaks(peaks)
	if len(peaks) > count {
		peaks = peaks[:count]
	}
	e.scratch = peaks[:0]
	return peaks
}

// appendRefined quadratically refines the accepted maximum at (i, j) on
// both axes and appends the estimate.
//
//spotfi:noalloc
func (e *Estimator) appendRefined(peaks []PathEstimate, i, j int, v float64) []PathEstimate {
	nt := len(e.thetas)
	theta := refineAxis(e.thetas, i, func(k int) float64 { return e.specP[j*nt+k] })
	tau := refineAxis(e.taus, j, func(k int) float64 { return e.specP[k*nt+i] })
	return append(peaks, PathEstimate{AoA: theta, ToF: tau, Power: v})
}

// sortPeaksByPower sorts descending by Power with an allocation-free
// insertion sort (peak counts are tiny). Equal powers order by position
// (AoA, then ToF) so the result is a pure function of the peak set, not
// of the scan order: dedupePeaks keeps whichever duplicate sorts first.
//
//spotfi:noalloc
func sortPeaksByPower(peaks []PathEstimate) {
	for i := 1; i < len(peaks); i++ {
		p := peaks[i]
		j := i
		for j > 0 && peakBefore(p, peaks[j-1]) {
			peaks[j] = peaks[j-1]
			j--
		}
		peaks[j] = p
	}
}

// peakBefore is the canonical peak order: descending power, ties broken
// by ascending AoA then ToF.
//
//spotfi:noalloc
func peakBefore(a, b PathEstimate) bool {
	if a.Power > b.Power {
		return true
	}
	if a.Power < b.Power {
		return false
	}
	if a.AoA < b.AoA {
		return true
	}
	if a.AoA > b.AoA {
		return false
	}
	return a.ToF < b.ToF
}

// gridPoints returns the inclusive grid start, start+step, …, stop built
// by index (start + i·step) rather than by accumulation: repeated `x +=
// step` drifts by an ulp per iteration, so whether the endpoint survives
// the loop bound — and hence the grid length — depended on the step size.
// The index form keeps length and endpoints exact for any step. A half-ulp
// slack on the point count absorbs ranges like π/(π/180) that land within
// rounding of an integer.
func gridPoints(start, stop, step float64) []float64 {
	n := int(math.Floor((stop-start)/step+1e-9)) + 1
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// dedupePeaks drops peaks within both physical merge radii (dedupeAoARad,
// dedupeToFS) of a stronger one (plateaus produce runs of near-equal "peaks"). peaks must be sorted
// by descending power; the filter compacts in place.
//
//spotfi:noalloc
func dedupePeaks(peaks []PathEstimate) []PathEstimate {
	if len(peaks) < 2 {
		return peaks
	}
	out := peaks[:0]
	for _, p := range peaks {
		dup := false
		for _, kept := range out {
			if math.Abs(p.AoA-kept.AoA) <= dedupeAoARad && math.Abs(p.ToF-kept.ToF) <= dedupeToFS {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// refineAxis fits a parabola through the peak sample and its two axis
// neighbors and returns the interpolated abscissa of the maximum. Indices
// outside the grid are clamped; boundary indices return the grid point
// itself (no neighbor to fit through); the refined value never leaves
// [grid[0], grid[len-1]].
//
//spotfi:noalloc
func refineAxis(grid []float64, idx int, val func(int) float64) float64 {
	if len(grid) == 0 {
		return 0
	}
	if idx < 0 {
		idx = 0
	}
	if idx > len(grid)-1 {
		idx = len(grid) - 1
	}
	if idx == 0 || idx == len(grid)-1 {
		return grid[idx]
	}
	ym, y0, yp := val(idx-1), val(idx), val(idx+1)
	den := ym - 2*y0 + yp
	if den >= 0 || math.Abs(den) < 1e-30 {
		return grid[idx]
	}
	delta := 0.5 * (ym - yp) / den
	if delta > 0.5 {
		delta = 0.5
	} else if delta < -0.5 {
		delta = -0.5
	}
	step := grid[1] - grid[0]
	x := grid[idx] + delta*step
	if x < grid[0] {
		x = grid[0]
	} else if x > grid[len(grid)-1] {
		x = grid[len(grid)-1]
	}
	return x
}
