// Package trace is a dependency-free span/trace layer for the SpotFi
// burst pipeline. Each localized burst gets one Trace holding a tree of
// Spans, one per pipeline stage (collector assembly, per-packet sanitize
// and super-resolution, clustering, direct-path selection, the Eq. 9
// solve), each carrying wall time plus stage-specific DSP attributes
// (STO slope removed, eigenvalue gap, cluster likelihoods, chosen
// direct-path AoA/ToF, solver iterations).
//
// Completed traces feed three sinks:
//
//  1. per-span latency histograms registered on an obs.Registry, so stage
//     timings appear on /metrics;
//  2. a bounded in-memory ring of recent traces served over HTTP (JSON and
//     an HTML waterfall) by Handler, with traces slower than SlowThreshold
//     retained in a separate ring so a flood of fast bursts cannot evict
//     the interesting ones;
//  3. structured slog records for slow traces, carrying the trace ID.
//
// Sampling is 1-in-N: a sampled-out burst gets a nil *Trace, and every
// method on a nil Tracer, Trace, or Span is a no-op that performs no
// allocation — the disabled hot path costs a counter increment and nil
// checks (guarded by an AllocsPerRun test). Composite attributes should be
// built under an Enabled() check so their construction is skipped too.
package trace

import (
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"spotfi/internal/obs"
)

// Canonical span names of the burst pipeline. The Tracer pre-registers a
// latency histogram for each so recording stays lock-free on the hot path
// (obs registration takes the registry lock; see the obsreg analyzer).
const (
	// StageBurst is the root span: collector emit → localization done.
	StageBurst = "burst"
	// StageAssemble is collector assembly: first buffered packet → emit.
	StageAssemble = "assemble"
	// StageAP covers stages 1–2 for one AP's burst.
	StageAP = "ap"
	// StageSanitize is Algorithm 1 ToF sanitization for one packet.
	StageSanitize = "sanitize"
	// StageEstimate is super-resolution (MUSIC/ESPRIT) for one packet.
	StageEstimate = "estimate"
	// StageCluster is Gaussian-means clustering over a burst's estimates.
	StageCluster = "cluster"
	// StageSelect is Eq. 8 scoring and direct-path selection.
	StageSelect = "select"
	// StageLocate is the Eq. 9 fused solve.
	StageLocate = "locate"
)

// PipelineStages returns the canonical span names in pipeline order.
func PipelineStages() []string {
	return []string{
		StageBurst, StageAssemble, StageAP,
		StageSanitize, StageEstimate, StageCluster, StageSelect, StageLocate,
	}
}

// Config controls a Tracer.
type Config struct {
	// SampleEvery traces 1 in N bursts: 1 traces everything, 0 disables
	// tracing entirely. Sampled-out bursts get a nil *Trace.
	SampleEvery int
	// Capacity bounds the ring of recent completed traces (default 64).
	Capacity int
	// SlowThreshold marks a completed trace as slow when its duration
	// reaches it; slow traces go to the dedicated ring (which keeps the
	// last 32) and are logged.
	// Zero disables slow retention.
	SlowThreshold time.Duration
	// Registry, when non-nil, receives per-span latency histograms and
	// trace counters.
	Registry *obs.Registry
	// Logger, when non-nil, receives a structured record per slow trace.
	Logger *slog.Logger
}

// slowCapacity bounds the slow-trace ring.
const slowCapacity = 32

// Tracer samples bursts and collects their completed traces. A nil Tracer
// is valid and never samples.
type Tracer struct {
	every      uint64
	slowThresh time.Duration
	logger     *slog.Logger

	seq atomic.Uint64 // sampling decisions
	ids atomic.Uint64 // trace ID allocator

	started    *obs.Counter
	sampledOut *obs.Counter
	finished   *obs.Counter
	slowCount  *obs.Counter
	hists      map[string]*obs.Histogram

	mu     sync.Mutex
	recent ring
	slow   ring
}

// New builds a Tracer. Metric families (registered when cfg.Registry is
// set):
//
//	spotfi_trace_span_seconds{span="burst"|"assemble"|...}
//	spotfi_traces_started_total, spotfi_traces_sampled_out_total
//	spotfi_traces_finished_total, spotfi_traces_slow_total
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	t := &Tracer{
		every:      uint64(max(cfg.SampleEvery, 0)),
		slowThresh: cfg.SlowThreshold,
		logger:     cfg.Logger,
		recent:     ring{buf: make([]TraceData, 0, cfg.Capacity), cap: cfg.Capacity},
		slow:       ring{buf: make([]TraceData, 0, slowCapacity), cap: slowCapacity},
	}
	if r := cfg.Registry; r != nil {
		t.started = r.Counter("spotfi_traces_started_total", "Bursts the tracer sampled in.", nil)
		t.sampledOut = r.Counter("spotfi_traces_sampled_out_total", "Bursts the tracer sampled out (or tracing disabled).", nil)
		t.finished = r.Counter("spotfi_traces_finished_total", "Traces completed and collected.", nil)
		t.slowCount = r.Counter("spotfi_traces_slow_total", "Completed traces at or over the slow threshold.", nil)
		t.hists = make(map[string]*obs.Histogram)
		for _, name := range PipelineStages() {
			t.hists[name] = r.Histogram("spotfi_trace_span_seconds",
				"Latency of traced pipeline spans, by span name.",
				obs.LatencyBuckets, obs.Labels{"span": name})
		}
	}
	return t
}

// Start samples a new trace rooted at a span named name, starting now.
// It returns nil — a universal no-op — when the burst is sampled out,
// tracing is disabled, or t is nil.
func (t *Tracer) Start(name string) *Trace {
	if t == nil || t.every == 0 {
		t.countSampledOut()
		return nil
	}
	return t.StartAt(name, time.Now())
}

// StartAt is Start with an explicit root start time, for spans that begin
// before the sampling decision can be made (e.g. burst assembly, whose
// start is the first buffered packet's arrival).
func (t *Tracer) StartAt(name string, at time.Time) *Trace {
	if t == nil || t.every == 0 {
		t.countSampledOut()
		return nil
	}
	if n := t.seq.Add(1); t.every > 1 && (n-1)%t.every != 0 {
		t.sampledOut.Inc()
		return nil
	}
	t.started.Inc()
	tr := &Trace{tracer: t, id: t.ids.Add(1), start: at}
	tr.root = &Span{tr: tr, parent: -1, name: name, start: at}
	tr.spans = append(tr.spans, tr.root)
	return tr
}

func (t *Tracer) countSampledOut() {
	if t != nil {
		t.sampledOut.Inc()
	}
}

// Recent returns snapshots of the most recently completed traces, newest
// first. Nil-safe.
func (t *Tracer) Recent() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.snapshot()
}

// Slow returns snapshots of retained slow traces, newest first. Nil-safe.
func (t *Tracer) Slow() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slow.snapshot()
}

// collect ingests a finished trace into the sinks.
func (t *Tracer) collect(td TraceData) {
	if t == nil {
		return
	}
	t.finished.Inc()
	for _, sp := range td.Spans {
		if h := t.hists[sp.Name]; h != nil {
			h.Observe(float64(sp.DurNS) / 1e9)
		}
	}
	t.mu.Lock()
	t.recent.push(td)
	if td.Slow {
		t.slow.push(td)
	}
	t.mu.Unlock()
	if td.Slow {
		t.slowCount.Inc()
		if t.logger != nil {
			t.logger.Warn("slow burst trace",
				"trace", td.ID,
				"dur", time.Duration(td.DurNS),
				"spans", len(td.Spans))
		}
	}
}

// ring is a bounded FIFO of trace snapshots.
type ring struct {
	buf  []TraceData
	next int
	cap  int
}

func (r *ring) push(td TraceData) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, td)
		r.next = len(r.buf) % r.cap
		return
	}
	r.buf[r.next] = td
	r.next = (r.next + 1) % r.cap
}

// snapshot returns the contents newest-first.
func (r *ring) snapshot() []TraceData {
	out := make([]TraceData, 0, len(r.buf))
	for i := 1; i <= len(r.buf); i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Trace is one sampled burst's span tree. A nil Trace is a universal
// no-op; code under test or sampled out threads nil freely.
type Trace struct {
	tracer *Tracer
	id     uint64
	start  time.Time

	// root duplicates spans[0], which never changes after StartAt:
	// Root() reads it without the lock, so a goroutine branching child
	// spans off the root does not race with another appending to spans
	// (append rewrites the slice header Root would otherwise read).
	root *Span

	mu       sync.Mutex
	spans    []*Span // spans[0] is the root
	finished bool
}

// ID returns the trace identifier ("" on a nil trace) for log correlation.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return fmt.Sprintf("%08x", tr.id)
}

// Root returns the root span (nil on a nil trace).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Finish closes the trace: any span still open is ended now, the snapshot
// is handed to the tracer's sinks, and further spans are dropped. Finish
// is idempotent and nil-safe. The component that completes the burst
// (normally the localization worker) owns the Finish call.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	for _, sp := range tr.spans {
		if sp.end.IsZero() {
			sp.end = now
		}
	}
	td := tr.snapshotLocked()
	tr.mu.Unlock()
	tr.tracer.collect(td)
}

// snapshotLocked renders the immutable TraceData view. Caller holds tr.mu.
func (tr *Trace) snapshotLocked() TraceData {
	td := TraceData{
		ID:    tr.ID(),
		Start: tr.start,
		Spans: make([]SpanData, len(tr.spans)),
	}
	for i, sp := range tr.spans {
		sd := SpanData{
			Name:    sp.name,
			Parent:  sp.parent,
			StartNS: sp.start.Sub(tr.start).Nanoseconds(),
			DurNS:   sp.end.Sub(sp.start).Nanoseconds(),
		}
		if len(sp.attrs) > 0 {
			sd.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				sd.Attrs[a.key] = a.value()
			}
		}
		td.Spans[i] = sd
	}
	td.DurNS = td.Spans[0].DurNS
	if tr.tracer != nil && tr.tracer.slowThresh > 0 &&
		time.Duration(td.DurNS) >= tr.tracer.slowThresh {
		td.Slow = true
	}
	return td
}

// Span is one timed stage within a trace. A nil Span is a universal no-op.
// A span may be mutated by one goroutine at a time; starting children of
// the same parent from concurrent goroutines is safe.
type Span struct {
	tr     *Trace
	idx    int
	parent int
	name   string
	start  time.Time
	end    time.Time
	attrs  []attr
}

// Enabled reports whether the span records anything — use it to skip
// building composite attribute values on the sampled-out path.
func (sp *Span) Enabled() bool { return sp != nil }

// StartSpan starts a child span beginning now. Nil-safe.
func (sp *Span) StartSpan(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.StartSpanAt(name, time.Now())
}

// StartSpanAt starts a child span with an explicit start time (for stages
// whose beginning predates the tracing decision). Nil-safe. Spans started
// after the trace finished are dropped.
func (sp *Span) StartSpanAt(name string, at time.Time) *Span {
	if sp == nil {
		return nil
	}
	tr := sp.tr
	child := &Span{tr: tr, parent: sp.idx, name: name, start: at}
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return nil
	}
	child.idx = len(tr.spans)
	tr.spans = append(tr.spans, child)
	tr.mu.Unlock()
	return child
}

// End closes the span at the current time. Only the first End takes
// effect; an unfinished span is closed by Trace.Finish. Nil-safe.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	now := time.Now()
	sp.tr.mu.Lock()
	if sp.end.IsZero() {
		sp.end = now
	}
	sp.tr.mu.Unlock()
}

// attr kinds.
const (
	kindInt = iota
	kindFloat
	kindStr
	kindFloats
)

type attr struct {
	key  string
	kind int
	i    int64
	f    float64
	s    string
	fs   []float64
}

// value renders the attribute for JSON, clamping non-finite floats (which
// encoding/json rejects).
func (a attr) value() any {
	switch a.kind {
	case kindInt:
		return a.i
	case kindFloat:
		return finite(a.f)
	case kindFloats:
		out := make([]float64, len(a.fs))
		for i, v := range a.fs {
			out[i] = finite(v)
		}
		return out
	default:
		return a.s
	}
}

func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

func (sp *Span) set(a attr) {
	sp.tr.mu.Lock()
	sp.attrs = append(sp.attrs, a)
	sp.tr.mu.Unlock()
}

// SetInt records an integer attribute. Nil-safe, allocation-free when nil.
func (sp *Span) SetInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.set(attr{key: key, kind: kindInt, i: v})
}

// SetFloat records a float attribute. Nil-safe, allocation-free when nil.
func (sp *Span) SetFloat(key string, v float64) {
	if sp == nil {
		return
	}
	sp.set(attr{key: key, kind: kindFloat, f: v})
}

// SetStr records a string attribute. Nil-safe, allocation-free when nil.
func (sp *Span) SetStr(key, v string) {
	if sp == nil {
		return
	}
	sp.set(attr{key: key, kind: kindStr, s: v})
}

// SetFloats records a float-slice attribute (e.g. per-cluster Eq. 8
// likelihoods). The slice is copied. Build the slice under Enabled() so
// the sampled-out path does not allocate it.
func (sp *Span) SetFloats(key string, vs []float64) {
	if sp == nil {
		return
	}
	sp.set(attr{key: key, kind: kindFloats, fs: append([]float64(nil), vs...)})
}

// SpanData is the immutable snapshot of one span.
type SpanData struct {
	// Name is the stage name (see the Stage constants).
	Name string `json:"name"`
	// Parent is the index of the parent span in TraceData.Spans (-1 for
	// the root).
	Parent int `json:"parent"`
	// StartNS is the span start as an offset from the trace start.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Attrs holds the stage-specific attributes (int64, float64, string,
	// or []float64 values).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// TraceData is the immutable snapshot of one completed trace.
type TraceData struct {
	ID    string     `json:"id"`
	Start time.Time  `json:"start"`
	DurNS int64      `json:"dur_ns"`
	Slow  bool       `json:"slow,omitempty"`
	Spans []SpanData `json:"spans"`
}
