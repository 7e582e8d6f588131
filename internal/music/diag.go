package music

import "math"

// Diag carries per-packet DSP diagnostics from one estimator run — the
// intermediate quantities (eigen iteration count, signal/noise eigenvalue
// separation, grid extent, peak yield) that burst traces attach to the
// estimate span so a bad localization can be attributed to its stage.
type Diag struct {
	// EigenSweeps is the number of Jacobi sweeps the covariance
	// eigendecomposition ran.
	EigenSweeps int
	// SignalDim is the estimated signal-subspace dimension (number of
	// resolvable paths, Algorithm 2 line 5).
	SignalDim int
	// EigenGapDB is the ratio, in dB, between the weakest signal
	// eigenvalue and the strongest noise eigenvalue. A small gap means
	// the subspace split — and hence every downstream estimate — is
	// fragile.
	EigenGapDB float64
	// GridTheta and GridTau are the MUSIC search-grid extents (zero for
	// the search-free ESPRIT path).
	GridTheta, GridTau int
	// Peaks is the number of spectrum peaks found before truncation to
	// the signal dimension.
	Peaks int
	// CellsSwept is the number of (θ, τ) grid cells the sweep evaluated,
	// the sweep's work counter: GridTheta·GridTau for MUSIC, zero for the
	// search-free ESPRIT path.
	CellsSwept int
}

// eigenGapDB computes 10·log10(λ[dim−1]/λ[dim]) — the signal/noise
// eigenvalue gap — returning 0 when the split is degenerate (no noise
// eigenvalue, or non-positive eigenvalues).
func eigenGapDB(values []float64, dim int) float64 {
	if dim <= 0 || dim >= len(values) {
		return 0
	}
	sig, noise := values[dim-1], values[dim]
	if sig <= 0 || noise <= 0 {
		return 0
	}
	gap := 10 * math.Log10(sig/noise)
	if math.IsInf(gap, 0) || math.IsNaN(gap) {
		return 0
	}
	return gap
}
