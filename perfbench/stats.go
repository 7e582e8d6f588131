package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is copied, not reordered). NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapSampler polls the live-plus-unswept heap size every millisecond and
// keeps the maximum, so a run can report its peak heap without a
// profiler. stop ends the poll and returns the peak in bytes.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	h.wg.Wait()
	return h.peak
}

// windowLength is how long each measurement window of a run lasts.
const windowLength = 2500 * time.Millisecond

// windows splits a measured run into consecutive windows and keeps each
// window's fix rate, CPU time per fix and delivered share, so a run can
// report medians that a disturbance covering part of the run does not
// move.
type windows struct {
	start      time.Time
	cpu0       time.Duration
	fixes0     int64
	attempts0  int64
	rate       []float64
	cpuPerFix  []float64
	deliveries []float64
}

func newWindows() *windows {
	return &windows{start: time.Now(), cpu0: cpuTime()}
}

// observe takes the cumulative fix and attempt counts and closes the
// current window once windowLength has passed.
func (w *windows) observe(now time.Time, fixes, attempts int64) {
	d := now.Sub(w.start)
	if d < windowLength {
		return
	}
	cpu := cpuTime()
	if n := fixes - w.fixes0; n > 0 {
		w.rate = append(w.rate, float64(n)/d.Seconds())
		w.cpuPerFix = append(w.cpuPerFix, (cpu-w.cpu0).Seconds()*1e3/float64(n))
		w.deliveries = append(w.deliveries, ratio(float64(n), float64(attempts-w.attempts0)))
	}
	w.start, w.cpu0, w.fixes0, w.attempts0 = now, cpu, fixes, attempts
}
