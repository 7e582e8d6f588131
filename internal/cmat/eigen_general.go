package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// EigGeneral computes the eigenvalues — and, when vectors is true, the
// (right) eigenvectors — of a general square complex matrix via Householder
// Hessenberg reduction and the shifted QR iteration, with eigenvectors
// recovered by inverse iteration. It targets the small (≤ ~16) dense
// matrices the shift-invariance estimators produce; defective matrices
// yield eigenvalues but possibly repeated eigenvectors.
func EigGeneral(a *Matrix, vectors bool) ([]complex128, [][]complex128, error) {
	if a.rows != a.cols {
		return nil, nil, fmt.Errorf("cmat: eigenvalues of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	if n == 0 {
		return nil, nil, fmt.Errorf("cmat: empty matrix")
	}
	for _, v := range a.data {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return nil, nil, fmt.Errorf("cmat: non-finite entry")
		}
	}
	var vals []complex128
	switch n {
	case 1:
		vals = []complex128{a.data[0]}
	case 2:
		vals = eig2x2(a.data[0], a.data[1], a.data[2], a.data[3])
	default:
		h := hessenberg(a.Clone())
		var err error
		vals, err = qrEigenvalues(h)
		if err != nil {
			return nil, nil, err
		}
	}
	if !vectors {
		return vals, nil, nil
	}
	vecs := make([][]complex128, len(vals))
	rng := rand.New(rand.NewSource(0x9E3779B9))
	for i, lam := range vals {
		v, err := inverseIteration(a, lam, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("cmat: eigenvector %d: %w", i, err)
		}
		vecs[i] = v
	}
	return vals, vecs, nil
}

// eig2x2 returns the eigenvalues of [[a,b],[c,d]] in closed form.
func eig2x2(a, b, c, d complex128) []complex128 {
	tr := a + d
	det := a*d - b*c
	disc := cmplx.Sqrt(tr*tr - 4*det)
	return []complex128{(tr + disc) / 2, (tr - disc) / 2}
}

// hessenberg reduces a (in place) to upper Hessenberg form by Householder
// similarity transforms and returns it.
func hessenberg(a *Matrix) *Matrix {
	n := a.rows
	for col := 0; col < n-2; col++ {
		// Householder vector for column col, rows col+1..n-1.
		var norm float64
		for r := col + 1; r < n; r++ {
			norm += real(a.data[r*n+col])*real(a.data[r*n+col]) + imag(a.data[r*n+col])*imag(a.data[r*n+col])
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			continue
		}
		x0 := a.data[(col+1)*n+col]
		alpha := complex(-norm, 0)
		if x0 != 0 {
			alpha = -complex(norm, 0) * x0 / complex(cmplx.Abs(x0), 0)
		}
		v := make([]complex128, n)
		v[col+1] = x0 - alpha
		for r := col + 2; r < n; r++ {
			v[r] = a.data[r*n+col]
		}
		var vn float64
		for _, vv := range v {
			vn += real(vv)*real(vv) + imag(vv)*imag(vv)
		}
		if vn < 1e-300 {
			continue
		}
		inv2 := complex(2/vn, 0)
		// A ← (I − 2vvᴴ/‖v‖²)·A.
		for j := 0; j < n; j++ {
			var dot complex128
			for r := col + 1; r < n; r++ {
				dot += cmplx.Conj(v[r]) * a.data[r*n+j]
			}
			dot *= inv2
			for r := col + 1; r < n; r++ {
				a.data[r*n+j] -= v[r] * dot
			}
		}
		// A ← A·(I − 2vvᴴ/‖v‖²).
		for i := 0; i < n; i++ {
			var dot complex128
			for r := col + 1; r < n; r++ {
				dot += a.data[i*n+r] * v[r]
			}
			dot *= inv2
			for r := col + 1; r < n; r++ {
				a.data[i*n+r] -= dot * cmplx.Conj(v[r])
			}
		}
	}
	return a
}

// qrEigenvalues runs the single-shift QR iteration on an upper Hessenberg
// matrix until every subdiagonal deflates, returning the diagonal.
func qrEigenvalues(h *Matrix) ([]complex128, error) {
	n := h.rows
	const maxIters = 60
	hi := n - 1
	iters := 0
	for hi > 0 {
		// Deflate tiny subdiagonals.
		deflated := false
		for k := hi; k > 0; k-- {
			if cmplx.Abs(h.data[k*n+k-1]) <= 1e-14*(cmplx.Abs(h.data[(k-1)*n+k-1])+cmplx.Abs(h.data[k*n+k])) {
				h.data[k*n+k-1] = 0
				if k == hi {
					hi--
					iters = 0
					deflated = true
				}
				break
			}
		}
		if deflated || hi == 0 {
			continue
		}
		iters++
		if iters > maxIters {
			return nil, fmt.Errorf("cmat: QR iteration did not converge")
		}
		// Wilkinson shift from the trailing 2×2 of the active block.
		a11 := h.data[(hi-1)*n+hi-1]
		a12 := h.data[(hi-1)*n+hi]
		a21 := h.data[hi*n+hi-1]
		a22 := h.data[hi*n+hi]
		ev := eig2x2(a11, a12, a21, a22)
		mu := ev[0]
		if cmplx.Abs(ev[1]-a22) < cmplx.Abs(ev[0]-a22) {
			mu = ev[1]
		}
		// Implicit QR step on the active block via Givens rotations.
		qrStep(h, hi, mu)
	}
	vals := make([]complex128, n)
	for i := 0; i < n; i++ {
		vals[i] = h.data[i*n+i]
	}
	return vals, nil
}

// qrStep performs one explicit shifted QR sweep on rows/cols 0..hi of the
// Hessenberg matrix: M = H − μI is factorized M = QR by Givens rotations,
// then H ← RQ + μI. The result stays Hessenberg and is similar to H.
func qrStep(h *Matrix, hi int, mu complex128) {
	n := h.rows
	for i := 0; i <= hi; i++ {
		h.data[i*n+i] -= mu
	}
	type givens struct {
		c complex128
		s complex128
	}
	gs := make([]givens, hi)
	// QR factorization: rotation i zeroes M[i+1][i] against the current
	// diagonal M[i][i].
	for i := 0; i < hi; i++ {
		x := h.data[i*n+i]
		y := h.data[(i+1)*n+i]
		r := math.Hypot(cmplx.Abs(x), cmplx.Abs(y))
		if r < 1e-300 {
			gs[i] = givens{c: 1, s: 0}
			continue
		}
		c := x / complex(r, 0)
		s := y / complex(r, 0)
		gs[i] = givens{c: c, s: s}
		// Rows i, i+1 ← Gᴴ · rows.
		for j := i; j <= hi; j++ {
			hij := h.data[i*n+j]
			hi1j := h.data[(i+1)*n+j]
			h.data[i*n+j] = cmplx.Conj(c)*hij + cmplx.Conj(s)*hi1j
			h.data[(i+1)*n+j] = -s*hij + c*hi1j
		}
		h.data[(i+1)*n+i] = 0
	}
	// RQ: columns i, i+1 ← columns · G.
	for i := 0; i < hi; i++ {
		c, s := gs[i].c, gs[i].s
		last := min(hi, i+1)
		for r := 0; r <= last; r++ {
			hri := h.data[r*n+i]
			hri1 := h.data[r*n+i+1]
			h.data[r*n+i] = hri*c + hri1*s
			h.data[r*n+i+1] = -hri*cmplx.Conj(s) + hri1*cmplx.Conj(c)
		}
	}
	for i := 0; i <= hi; i++ {
		h.data[i*n+i] += mu
	}
}

// inverseIteration recovers a unit eigenvector for eigenvalue lam by
// solving (A − (λ+ε)I)·x = b repeatedly from a random start.
func inverseIteration(a *Matrix, lam complex128, rng *rand.Rand) ([]complex128, error) {
	n := a.rows
	scale := a.FrobeniusNorm()
	if scale == 0 {
		scale = 1
	}
	// Perturb the shift slightly so the solve is nonsingular even at an
	// exact eigenvalue.
	for attempt := 0; attempt < 4; attempt++ {
		eps := complex(scale*1e-10*math.Pow(10, float64(attempt)), scale*1e-10)
		shifted := a.Clone()
		for i := 0; i < n; i++ {
			shifted.data[i*n+i] -= lam + eps
		}
		f, err := Factorize(shifted)
		if err != nil {
			continue
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		Normalize(x)
		ok := true
		for it := 0; it < 3; it++ {
			y, err := f.SolveVec(x)
			if err != nil {
				ok = false
				break
			}
			if nm := Norm2(y); nm < 1e-300 || math.IsNaN(nm) || math.IsInf(nm, 0) {
				ok = false
				break
			}
			Normalize(y)
			x = y
		}
		if !ok {
			continue
		}
		// Accept if the residual is small.
		ax := a.MulVec(x)
		for i := range ax {
			ax[i] -= lam * x[i]
		}
		if Norm2(ax) <= 1e-6*scale {
			return x, nil
		}
	}
	return nil, fmt.Errorf("cmat: inverse iteration failed for eigenvalue %v", lam)
}
