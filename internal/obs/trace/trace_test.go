package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spotfi/internal/obs"
)

// runInstrumented walks the shape of the burst hot path's instrumentation:
// a root trace, per-stage children, scalar attributes, and a finish.
func runInstrumented(tr *Trace) {
	ap := tr.Root().StartSpan(StageAP)
	ap.SetInt("ap", 3)
	for i := 0; i < 4; i++ {
		ssp := ap.StartSpan(StageSanitize)
		ssp.SetFloat("sto_ns", 12.5)
		ssp.End()
		esp := ap.StartSpan(StageEstimate)
		esp.SetInt("paths", 4)
		esp.SetFloat("eigen_gap_db", 21.0)
		esp.End()
	}
	csp := ap.StartSpan(StageCluster)
	csp.End()
	sel := ap.StartSpan(StageSelect)
	if sel.Enabled() {
		sel.SetFloats("likelihoods", []float64{0.9, 0.1})
	}
	sel.End()
	ap.End()
	lsp := tr.Root().StartSpan(StageLocate)
	lsp.SetInt("iters", 42)
	lsp.End()
	tr.Finish()
}

func TestTraceTreeAndSinks(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := New(Config{SampleEvery: 1, Registry: reg, Capacity: 8})
	tr := tracer.Start(StageBurst)
	if tr == nil {
		t.Fatal("SampleEvery=1 must trace every burst")
	}
	if tr.ID() == "" {
		t.Fatal("traced burst must have an ID")
	}
	runInstrumented(tr)

	recent := tracer.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent ring has %d traces, want 1", len(recent))
	}
	td := recent[0]
	if td.Spans[0].Name != StageBurst || td.Spans[0].Parent != -1 {
		t.Fatalf("root span = %+v", td.Spans[0])
	}
	names := map[string]int{}
	for _, sp := range td.Spans {
		names[sp.Name]++
		if sp.DurNS < 0 {
			t.Fatalf("span %s has negative duration", sp.Name)
		}
	}
	for _, want := range []string{StageAP, StageSanitize, StageEstimate, StageCluster, StageSelect, StageLocate} {
		if names[want] == 0 {
			t.Fatalf("span %s missing from trace: %v", want, names)
		}
	}
	// Attributes survive the snapshot with their types.
	for _, sp := range td.Spans {
		if sp.Name == StageSelect {
			ls, ok := sp.Attrs["likelihoods"].([]float64)
			if !ok || len(ls) != 2 {
				t.Fatalf("select span attrs = %v", sp.Attrs)
			}
		}
	}
	// Histogram sink: one observation per canonical span.
	var estObs uint64
	for _, s := range reg.Snapshot() {
		if s.Name == "spotfi_trace_span_seconds" && strings.Contains(s.Labels, "estimate") {
			estObs = s.Count
		}
	}
	if estObs != 4 {
		t.Fatalf("estimate histogram has %d observations, want 4", estObs)
	}
}

func TestSampling(t *testing.T) {
	tracer := New(Config{SampleEvery: 3})
	traced := 0
	for i := 0; i < 9; i++ {
		if tr := tracer.Start(StageBurst); tr != nil {
			traced++
			tr.Finish()
		}
	}
	if traced != 3 {
		t.Fatalf("1-in-3 sampling traced %d of 9", traced)
	}
	disabled := New(Config{SampleEvery: 0})
	if disabled.Start(StageBurst) != nil {
		t.Fatal("SampleEvery=0 must disable tracing")
	}
	var nilTracer *Tracer
	if nilTracer.Start(StageBurst) != nil {
		t.Fatal("nil tracer must not trace")
	}
}

func TestSlowRetention(t *testing.T) {
	tracer := New(Config{SampleEvery: 1, Capacity: 2, SlowThreshold: 100 * time.Millisecond})
	slow := tracer.StartAt(StageBurst, time.Now().Add(-time.Second))
	slowID := slow.ID()
	slow.Finish()
	// Flood the recent ring so the slow trace is evicted from it.
	for i := 0; i < 5; i++ {
		tracer.Start(StageBurst).Finish()
	}
	for _, td := range tracer.Recent() {
		if td.ID == slowID {
			t.Fatalf("slow trace still in size-2 recent ring after 5 pushes")
		}
	}
	found := false
	for _, td := range tracer.Slow() {
		if td.ID == slowID && td.Slow {
			found = true
		}
	}
	if !found {
		t.Fatal("slow trace was not retained in the slow ring")
	}
}

func TestFinishIdempotentAndLateSpansDropped(t *testing.T) {
	tracer := New(Config{SampleEvery: 1})
	tr := tracer.Start(StageBurst)
	tr.Finish()
	tr.Finish()
	if got := len(tracer.Recent()); got != 1 {
		t.Fatalf("double Finish collected %d traces", got)
	}
	if sp := tr.Root().StartSpan(StageAP); sp != nil {
		t.Fatal("span started after Finish must be dropped")
	}
}

func TestConcurrentChildSpans(t *testing.T) {
	tracer := New(Config{SampleEvery: 1})
	tr := tracer.Start(StageBurst)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.Root().StartSpan(StageEstimate)
			sp.SetInt("pkt", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	tr.Finish()
	td := tracer.Recent()[0]
	if len(td.Spans) != 17 {
		t.Fatalf("got %d spans, want 17", len(td.Spans))
	}
}

// TestDisabledPathAllocs is the hot-path guard the CI benchmark smoke step
// enforces: with tracing disabled or sampled out, the full instrumentation
// sequence of a burst must allocate nothing.
func TestDisabledPathAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	cases := map[string]*Tracer{
		"nil-tracer": nil,
		"disabled":   New(Config{SampleEvery: 0, Registry: reg}),
		"sampled-out": func() *Tracer {
			tr := New(Config{SampleEvery: 1 << 30})
			tr.Start(StageBurst).Finish() // consume the one sampled-in slot
			return tr
		}(),
	}
	for name, tracer := range cases {
		allocs := testing.AllocsPerRun(200, func() {
			tr := tracer.Start(StageBurst)
			if tr != nil {
				t.Fatalf("%s: expected sampled-out trace", name)
			}
			runInstrumented(tr)
		})
		if allocs != 0 {
			t.Errorf("%s: disabled trace path allocates %.1f objects per burst, want 0", name, allocs)
		}
	}
}

func TestHandlerJSONAndWaterfall(t *testing.T) {
	tracer := New(Config{SampleEvery: 1, SlowThreshold: time.Nanosecond})
	tr := tracer.StartAt(StageBurst, time.Now().Add(-50*time.Millisecond))
	runInstrumented(tr)

	rec := httptest.NewRecorder()
	tracer.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var body struct {
		Recent []TraceData `json:"recent"`
		Slow   []TraceData `json:"slow"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(body.Recent) != 1 || len(body.Slow) != 1 {
		t.Fatalf("got %d recent, %d slow traces", len(body.Recent), len(body.Slow))
	}
	if body.Recent[0].DurNS < int64(50*time.Millisecond) {
		t.Fatalf("trace duration %d ns, want ≥ 50ms", body.Recent[0].DurNS)
	}

	rec = httptest.NewRecorder()
	tracer.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?view=html", nil))
	html := rec.Body.String()
	for _, want := range []string{"spotfi burst traces", StageSanitize, StageLocate, "SLOW"} {
		if !strings.Contains(html, want) {
			t.Fatalf("waterfall HTML missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	tracer.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?slow=1&n=0", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Recent) != 0 || len(body.Slow) != 0 {
		t.Fatalf("slow=1&n=0 returned %d recent, %d slow", len(body.Recent), len(body.Slow))
	}
}

func TestRingEviction(t *testing.T) {
	tracer := New(Config{SampleEvery: 1, Capacity: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		tr := tracer.Start(StageBurst)
		ids = append(ids, tr.ID())
		tr.Finish()
	}
	got := tracer.Recent()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	// Newest first: ids[4], ids[3], ids[2].
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if got[i].ID != want {
			t.Fatalf("ring[%d] = %s, want %s", i, got[i].ID, want)
		}
	}
}

// BenchmarkTraceDisabled measures the per-burst cost of the trace layer
// with tracing sampled out — the price every burst pays in production.
func BenchmarkTraceDisabled(b *testing.B) {
	tracer := New(Config{SampleEvery: 0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runInstrumented(tracer.Start(StageBurst))
	}
}

// BenchmarkTraceEnabled measures the cost of a fully sampled burst trace.
func BenchmarkTraceEnabled(b *testing.B) {
	tracer := New(Config{SampleEvery: 1, Capacity: 16})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runInstrumented(tracer.Start(StageBurst))
	}
}
