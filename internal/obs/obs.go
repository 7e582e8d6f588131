// Package obs is a dependency-free metrics layer for the SpotFi serving
// path: atomic counters, gauges, and fixed-bucket latency histograms,
// collected in a Registry that exposes a structured snapshot API and
// Prometheus text exposition over HTTP.
//
// Metrics are registered once (get-or-create by name + label set) and then
// updated lock-free on the hot path. All update methods are safe on a nil
// receiver and do nothing, so instrumentation points can be left unwired —
// a pipeline run without a registry pays only a nil check.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels is an optional set of constant labels attached to one series of a
// metric family (e.g. {"stage": "sanitize"}).
type Labels map[string]string

// render returns the canonical `k="v",...` form with sorted keys.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (which may be negative). No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one. No-op on a nil receiver.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one. No-op on a nil receiver.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of float64 observations (typically
// latencies in seconds). Buckets are cumulative in exposition, matching
// Prometheus semantics.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// LatencyBuckets spans 10 µs … 10 s, a sensible default for pipeline
// stage timings. The sub-100 µs bounds matter since the PR-6 hot-path
// rework: a warm MUSIC estimate runs ~0.34 ms and admission decisions are
// microseconds, so a floor at 100 µs flattened the entire fast path into
// one or two buckets.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 750e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// ExpBuckets returns perDecade log-spaced bucket bounds per power of ten
// from min up to (and including the first bound ≥) max — HDR-style
// resolution for histograms whose observations span several orders of
// magnitude, e.g. packet→fix latency from hundreds of microseconds under
// light load to seconds under overload. It panics on a non-positive range
// or perDecade, like a malformed literal bucket slice would fail review.
func ExpBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade < 1 {
		panic("obs: ExpBuckets needs 0 < min < max and perDecade ≥ 1")
	}
	// Bounds are computed by index (min·10^(i/perDecade)), not by repeated
	// multiplication, so no float error accumulates across buckets.
	var out []float64
	for i := 0; ; i++ {
		b := min * math.Pow(10, float64(i)/float64(perDecade))
		out = append(out, b)
		if b >= max {
			return out
		}
	}
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Safe for concurrent use; no-op on a nil
// receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start. No-op on a nil
// receiver.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns how many values were observed (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns a copy of the bucket upper bounds (the implicit +Inf
// bucket is not included). Nil on a nil receiver.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Cumulative returns the cumulative per-bucket counts, len(Bounds())+1
// entries with the final one equal to Count() — the raw material for
// windowed quantile estimation (internal/obs/slo samples these and
// differences consecutive samples). Nil on a nil receiver. Counts are read
// bucket-by-bucket without a global lock, so under concurrent Observe the
// vector may be off by in-flight observations; consumers difference
// samples, where the error stays bounded by concurrency, not time.
func (h *Histogram) Cumulative() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// CountAtOrBelow returns how many observations fell into buckets whose
// upper bound is ≤ bound — the "good event" count for a latency objective.
// bound is snapped down to the nearest bucket boundary; pick SLO bounds
// that are bucket bounds for exact accounting. 0 on a nil receiver.
func (h *Histogram) CountAtOrBelow(bound float64) uint64 {
	if h == nil {
		return 0
	}
	// First bound strictly greater than bound: buckets [0,i) are ≤ bound.
	i := sort.SearchFloat64s(h.bounds, bound)
	//lint:allow floateq callers must pass an exact bucket bound; nearest-bucket rounding would silently miscount
	if i < len(h.bounds) && h.bounds[i] == bound {
		i++
	}
	var cum uint64
	for j := 0; j < i; j++ {
		cum += h.counts[j].Load()
	}
	return cum
}

// Metric type names as used in Prometheus exposition.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// series is one labeled instance of a metric family.
type series struct {
	labels  string
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    string
	order  []string
	series map[string]*series
	// buckets pins the bucket layout of a histogram family: Prometheus
	// consumers aggregate across a family's series, which is only sound
	// when every series shares one layout.
	buckets []float64
}

// DefaultSeriesLimit caps how many labeled series one metric family may
// hold before new label sets are dropped and counted instead of
// registered. Lazily-registered per-AP / per-target series (e.g.
// spotfi_ap_health{ap=…}) are driven by whatever identifiers the traffic
// carries, and a load generator replaying thousands of APs must not grow
// the registry — and every scrape — without bound.
const DefaultSeriesLimit = 1000

// droppedLabelsMetric counts label sets refused by the per-family series
// cap. The family is materialized on the first drop, so registries that
// never hit a cap expose exactly the series their code registered.
const droppedLabelsMetric = "spotfi_obs_dropped_labels_total"

// Registry holds a set of metric families. The zero value is not usable;
// call NewRegistry. Registration takes a lock; updates on the returned
// metrics are lock-free.
type Registry struct {
	mu          sync.Mutex
	order       []string
	families    map[string]*family
	seriesLimit int
	dropped     *Counter // non-nil once the drop family is materialized
}

// NewRegistry returns an empty registry with the default per-family
// series cap.
func NewRegistry() *Registry {
	return &Registry{
		families:    make(map[string]*family),
		seriesLimit: DefaultSeriesLimit,
	}
}

// SetSeriesLimit overrides the per-family series cap (≤ 0 disables the
// cap). Call before high-cardinality traffic arrives; lowering it later
// does not evict already-registered series.
func (r *Registry) SetSeriesLimit(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seriesLimit = n
}

// DroppedLabels returns how many label sets the series cap has refused.
func (r *Registry) DroppedLabels() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped.Value()
}

// dropSeriesLocked counts one refused label set, materializing the
// spotfi_obs_dropped_labels_total family on first use. Caller holds r.mu.
func (r *Registry) dropSeriesLocked() {
	if r.dropped == nil {
		r.dropped = &Counter{}
		f := &family{
			name:   droppedLabelsMetric,
			help:   "Label sets refused by the per-family series cap (SetSeriesLimit).",
			typ:    TypeCounter,
			series: map[string]*series{"": {counter: r.dropped}},
			order:  []string{""},
		}
		r.families[droppedLabelsMetric] = f
		r.order = append(r.order, droppedLabelsMetric)
	}
	r.dropped.Inc()
}

// lookup get-or-creates the (family, series) pair, enforcing that a name is
// only ever used with one metric type (and, for histograms, one bucket
// layout). Misuse is a programming error and panics, like redeclaring a
// variable would fail to compile. fill sets the series' value handle
// under the registry lock, so a registration racing a scrape (a per-AP
// gauge appearing as an AP connects) never hands Snapshot a half-built
// series.
func (r *Registry) lookup(name, help, typ string, labels Labels, buckets []float64, fill func(*series)) *series {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if typ == TypeHistogram {
		sorted := append([]float64(nil), buckets...)
		sort.Float64s(sorted)
		if f.buckets == nil {
			f.buckets = sorted
		} else if !equalBounds(f.buckets, sorted) {
			panic(fmt.Sprintf("obs: histogram %q registered with conflicting buckets", name))
		}
	}
	key := labels.render()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		// The series cap bounds label cardinality, not correctness: past
		// it, callers still get a fully functional handle — it just is not
		// retained or exported, and the drop is counted. A fleet replaying
		// thousands of APs degrades scrape coverage, never crashes.
		if r.seriesLimit > 0 && len(f.series) >= r.seriesLimit {
			r.dropSeriesLocked()
			fill(s)
			return s
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	fill(s)
	return s
}

// Counter returns the counter for name+labels, registering it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, TypeCounter, labels, nil, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
	}).counter
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, TypeGauge, labels, nil, func(s *series) {
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
	}).gauge
}

// GaugeFunc registers a gauge whose value is read by calling fn at scrape
// time — for values already maintained elsewhere (e.g. a map size under
// someone else's lock). fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, TypeGauge, labels, nil, func(s *series) { s.gaugeFn = fn })
}

// Histogram returns the histogram for name+labels, registering it on first
// use with the given bucket upper bounds (a +Inf bucket is implicit). The
// first registration of a family pins its bucket layout; registering the
// same family again with different buckets panics — previously the later
// buckets were silently ignored, which hid per-histogram overrides (e.g. a
// µs-resolution sojourn histogram) behind whichever call site ran first.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	return r.lookup(name, help, TypeHistogram, labels, buckets, func(s *series) {
		if s.hist == nil {
			s.hist = newHistogram(buckets)
		}
	}).hist
}

// equalBounds reports whether two sorted bucket layouts are identical.
func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:allow floateq bucket grids are shared only when bit-identical
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the inclusive upper bound (+Inf for the last bucket).
	UpperBound float64
	// CumulativeCount is how many observations were ≤ UpperBound.
	CumulativeCount uint64
}

// Sample is one series' state in a snapshot.
type Sample struct {
	// Name is the metric family name.
	Name string
	// Type is TypeCounter, TypeGauge, or TypeHistogram.
	Type string
	// Labels is the rendered label set ("" if unlabeled).
	Labels string
	// Value holds counter and gauge values.
	Value float64
	// Sum, Count, and Buckets hold histogram state.
	Sum     float64
	Count   uint64
	Buckets []Bucket
}

// Snapshot returns a consistent point-in-time view of every series, in
// registration order.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			s := f.series[key]
			smp := Sample{Name: f.name, Type: f.typ, Labels: s.labels}
			switch {
			case s.counter != nil:
				smp.Value = float64(s.counter.Value())
			case s.gaugeFn != nil:
				smp.Value = s.gaugeFn()
			case s.gauge != nil:
				smp.Value = float64(s.gauge.Value())
			case s.hist != nil:
				smp.Sum = s.hist.Sum()
				var cum uint64
				for i, b := range s.hist.bounds {
					cum += s.hist.counts[i].Load()
					smp.Buckets = append(smp.Buckets, Bucket{UpperBound: b, CumulativeCount: cum})
				}
				cum += s.hist.counts[len(s.hist.bounds)].Load()
				smp.Buckets = append(smp.Buckets, Bucket{UpperBound: math.Inf(1), CumulativeCount: cum})
				smp.Count = cum
			}
			out = append(out, smp)
		}
	}
	return out
}

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot under the registry lock, format outside it.
	r.mu.Lock()
	type fam struct {
		name, help, typ string
		samples         []Sample
	}
	var fams []fam
	for _, name := range r.order {
		f := r.families[name]
		fams = append(fams, fam{name: f.name, help: f.help, typ: f.typ})
	}
	r.mu.Unlock()
	byName := make(map[string][]Sample)
	for _, s := range r.Snapshot() {
		byName[s.Name] = append(byName[s.Name], s)
	}

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range byName[f.name] {
			if err := writeSample(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, s Sample) error {
	if s.Type != TypeHistogram {
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(s.Name, s.Labels), formatValue(s.Value))
		return err
	}
	for _, b := range s.Buckets {
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatValue(b.UpperBound)
		}
		labels := s.Labels
		if labels != "" {
			labels += ","
		}
		labels += fmt.Sprintf("le=%q", le)
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", s.Name, labels, b.CumulativeCount); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(s.Name+"_sum", s.Labels), formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesName(s.Name+"_count", s.Labels), s.Count)
	return err
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func formatValue(v float64) string {
	return fmt.Sprintf("%g", v)
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
