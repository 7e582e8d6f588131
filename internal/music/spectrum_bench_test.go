package music

import (
	"math/rand"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/rf"
)

// benchScene synthesizes a moderately hard 3-path packet for the spectrum
// benchmarks: a direct path plus two reflections, with noise.
func benchScene(seed int64) *csi.Matrix {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	paths := []PathEstimate{
		{AoA: 0.3, ToF: 15e-9},
		{AoA: -0.5, ToF: 55e-9},
		{AoA: 0.9, ToF: 95e-9},
	}
	gains := []complex128{1, 0.6 + 0.2i, 0.35 - 0.1i}
	c := buildCSI(band, array, paths, gains)
	addNoise(c, 0.05, rand.New(rand.NewSource(seed)))
	return c
}

// BenchmarkSpectrumFullGrid is the production configuration: the full
// 181×201 grid sweep, shared steering table, warm estimator arenas. CI
// gates its allocations.
func BenchmarkSpectrumFullGrid(b *testing.B) {
	e, err := NewEstimator(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	c := benchScene(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EstimatePaths(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectrumColdEstimator includes per-call estimator construction
// (steering table served from the shared cache) and a cold eigen
// workspace — the cost a pool miss pays.
func BenchmarkSpectrumColdEstimator(b *testing.B) {
	p := DefaultParams()
	c := benchScene(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEstimator(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.EstimatePaths(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectrumVaryingPackets feeds a stream of different noisy
// packets of the same scene through one estimator — the realistic
// per-burst shape the eigen warm start targets.
func BenchmarkSpectrumVaryingPackets(b *testing.B) {
	e, err := NewEstimator(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	const packets = 16
	cs := make([]*csi.Matrix, packets)
	for i := range cs {
		cs[i] = benchScene(int64(i + 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EstimatePaths(cs[i%packets]); err != nil {
			b.Fatal(err)
		}
	}
}
