package obs

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total", "frames read", nil)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Get-or-create: same name returns the same counter.
	if r.Counter("frames_total", "frames read", nil) != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("pending", "pending entries", nil)
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(0.5)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics reported nonzero values")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "stage latency", []float64{0.01, 0.1, 1}, nil)
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-2.565) > 1e-12 {
		t.Fatalf("sum = %v, want 2.565", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d samples", len(snap))
	}
	s := snap[0]
	want := []Bucket{
		{UpperBound: 0.01, CumulativeCount: 2}, // 0.005 and the boundary 0.01
		{UpperBound: 0.1, CumulativeCount: 3},
		{UpperBound: 1, CumulativeCount: 4},
		{UpperBound: math.Inf(1), CumulativeCount: 5},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(want))
	}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("stage_seconds", "per-stage latency", []float64{1}, Labels{"stage": "sanitize"})
	b := r.Histogram("stage_seconds", "per-stage latency", []float64{1}, Labels{"stage": "estimate"})
	if a == b {
		t.Fatal("distinct label sets shared a histogram")
	}
	a.Observe(0.5)
	b.Observe(2)
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE stage_seconds histogram") != 1 {
		t.Fatalf("family header not emitted exactly once:\n%s", out)
	}
	for _, line := range []string{
		`stage_seconds_bucket{stage="sanitize",le="1"} 1`,
		`stage_seconds_bucket{stage="estimate",le="1"} 0`,
		`stage_seconds_bucket{stage="estimate",le="+Inf"} 1`,
		`stage_seconds_count{stage="sanitize"} 1`,
		`stage_seconds_sum{stage="estimate"} 2`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing line %q in:\n%s", line, out)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.GaugeFunc("pending_targets", "live map size", nil, func() float64 { return v })
	if got := r.Snapshot()[0].Value; got != 3 {
		t.Fatalf("gauge func read %v, want 3", got)
	}
	v = 9
	if got := r.Snapshot()[0].Value; got != 9 {
		t.Fatalf("gauge func read %v, want 9", got)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting type registration did not panic")
		}
	}()
	r.Gauge("x_total", "", nil)
}

func TestPrometheusEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("bursts_total", "bursts emitted", nil).Add(7)
	r.Gauge("conns", "open connections", nil).Set(2)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	buf := make([]byte, 4096)
	n, _ := res.Body.Read(buf)
	out := string(buf[:n])
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	for _, line := range []string{
		"# HELP bursts_total bursts emitted",
		"# TYPE bursts_total counter",
		"bursts_total 7",
		"conns 2",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
}

// TestConcurrentUpdates exercises the lock-free paths under the race
// detector: counters, gauges, and the CAS loop in Histogram.Observe.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h_seconds", "", LatencyBuckets, nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %d, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got := h.Sum(); math.Abs(got-workers*per*0.001) > 1e-6 {
		t.Fatalf("histogram sum = %v", got)
	}
}

// TestRegistrationRacesScrape registers lazily-labelled series (as a
// per-AP breaker gauge appears when an AP connects) while another
// goroutine scrapes; under -race every series handle must be published
// under the registry lock.
func TestRegistrationRacesScrape(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			ap := Labels{"ap": strconv.Itoa(i)}
			r.GaugeFunc("state", "per-AP state", ap, func() float64 { return 1 })
			r.Counter("fails_total", "per-AP failures", ap).Inc()
			r.Gauge("depth", "per-AP depth", ap).Set(int64(i))
			r.Histogram("wait_seconds", "per-AP wait", LatencyBuckets, ap).Observe(0.01)
		}
	}()
	for i := 0; i < 200; i++ {
		r.Snapshot()
	}
	wg.Wait()
}
