package music

import (
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// steeringKey identifies one precomputed steering table: every parameter
// the grids and steering powers depend on. Two estimators whose Params
// agree on these fields share one table, whatever else differs.
type steeringKey struct {
	antennas     int
	spacingM     float64
	carrierHz    float64
	subSpacingHz float64
	subAnt       int
	subSub       int
	aoaGridRad   float64
	tofGridS     float64
	tofMinS      float64
	tofMaxS      float64
}

// steeringTable holds the pure-geometry precomputation of one (grid,
// array, band) combination: the search grids, the per-grid-point steering
// powers, and the per-theta antenna pair products the block-decomposed
// sweep consumes. A table is immutable after build and shared across
// estimators, bursts, and goroutines without locks.
//
//spotfi:immutable
type steeringTable struct {
	thetas []float64
	taus   []float64
	// omega[j*subSub+s] = Ω(taus[j])^s.
	omega []complex128
	// pair[c*len(thetas)+i] = conj(Φ^a)·Φ^b for the c-th antenna pair
	// (a<b, in a-major order) at thetas[i] — the only per-theta factor the
	// sweep's inner loop needs, laid out so each pair's AoA run is
	// contiguous like a spectrum column.
	pair []complex128
	// omegaNorm[j] = ‖o(taus[j])‖², the ∑_s |Ω^s|² diagonal term.
	omegaNorm []float64

	subAnt, subSub, nPair int
}

// steeringCache shares steeringTables across estimators. Lookups happen at
// NewEstimator time only — never per burst — so a plain mutex is fine; the
// hot path touches the returned table lock-free.
var steeringCache struct {
	mu sync.Mutex
	m  map[steeringKey]*steeringTable

	hits, misses atomic.Uint64
}

// SteeringCacheStats reports the steering-cache hit/miss counters and the
// number of resident tables, for metrics export and bench reporting.
func SteeringCacheStats() (hits, misses uint64, entries int) {
	steeringCache.mu.Lock()
	entries = len(steeringCache.m)
	steeringCache.mu.Unlock()
	return steeringCache.hits.Load(), steeringCache.misses.Load(), entries
}

func steeringKeyOf(p Params) steeringKey {
	return steeringKey{
		antennas:     p.Array.Antennas,
		spacingM:     p.Array.SpacingM,
		carrierHz:    p.Band.CarrierHz,
		subSpacingHz: p.Band.SubcarrierSpacingHz,
		subAnt:       p.SubarrayAntennas,
		subSub:       p.SubarraySubcarriers,
		aoaGridRad:   p.AoAGridRad,
		tofGridS:     p.ToFGridS,
		tofMinS:      p.ToFMinS,
		tofMaxS:      p.ToFMaxS,
	}
}

// lookupSteeringTable returns the shared table for p, building it on first
// use. p must already be validated.
func lookupSteeringTable(p Params) *steeringTable {
	key := steeringKeyOf(p)
	steeringCache.mu.Lock()
	defer steeringCache.mu.Unlock()
	if t, ok := steeringCache.m[key]; ok {
		steeringCache.hits.Add(1)
		return t
	}
	steeringCache.misses.Add(1)
	t := buildSteeringTable(p)
	if steeringCache.m == nil {
		steeringCache.m = make(map[steeringKey]*steeringTable)
	}
	steeringCache.m[key] = t
	return t
}

func buildSteeringTable(p Params) *steeringTable {
	t := &steeringTable{
		thetas: gridPoints(-math.Pi/2, math.Pi/2, p.AoAGridRad),
		taus:   gridPoints(p.ToFMinS, p.ToFMaxS, p.ToFGridS),
		subAnt: p.SubarrayAntennas,
		subSub: p.SubarraySubcarriers,
	}
	t.nPair = t.subAnt * (t.subAnt - 1) / 2
	nt := len(t.thetas)
	t.pair = make([]complex128, t.nPair*nt)
	for i, th := range t.thetas {
		pow := geometricSeries(Phi(th, p.Array, p.Band), t.subAnt)
		c := 0
		for a := 0; a < t.subAnt; a++ {
			for b := a + 1; b < t.subAnt; b++ {
				t.pair[c*nt+i] = cmplx.Conj(pow[a]) * pow[b]
				c++
			}
		}
	}
	t.omega = make([]complex128, len(t.taus)*t.subSub)
	t.omegaNorm = make([]float64, len(t.taus))
	for j, tau := range t.taus {
		pow := geometricSeries(Omega(tau, p.Band), t.subSub)
		copy(t.omega[j*t.subSub:], pow)
		var n float64
		for _, z := range pow {
			n += real(z)*real(z) + imag(z)*imag(z)
		}
		t.omegaNorm[j] = n
	}
	return t
}
