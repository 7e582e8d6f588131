// Package replay re-ingests a flight-recorder bundle through the real
// localization pipeline. Every covered FixRecord in the bundle is fed —
// packet for packet, in recorded burst-assembly order — through a fresh
// server.Collector into the same localizer rung that produced it in
// production, under a deterministic clock and 100% trace sampling. A
// healthy replay reproduces each recorded fix bit-for-bit (compared as
// float64 bit patterns, not rounded decimals), which is what makes a
// bundle a debugging artifact rather than a screenshot: the engineer can
// replay the exact anomalous traffic on a laptop, with full traces, and
// watch the pipeline make the same decisions.
package replay

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/csi"
	"spotfi/internal/flight"
	"spotfi/internal/obs/trace"
	"spotfi/internal/server"
)

// Options tunes a replay run.
type Options struct {
	// SampleEvery is the trace sampling interval (1 = trace every fix,
	// the default; replay exists to produce traces, so 0 means 1).
	SampleEvery int
}

// FixOutcome is the replay verdict for one recorded fix.
type FixOutcome struct {
	// Index is the fix's position in the bundle manifest.
	Index int
	MAC   string
	Mode  string
	// Recorded* are the production values from the bundle.
	RecordedX, RecordedY, RecordedConf float64
	// X, Y, Confidence are what replay produced (zero when skipped).
	X, Y, Confidence float64
	// Match is true when every replayed value is bit-identical to the
	// recorded one (including the rung's mode label).
	Match bool
	// Skipped is true when the fix could not be replayed at all —
	// Reason says why. A skipped fix is not a divergence: the most
	// common cause is Covered=false (frames evicted before the dump).
	Skipped bool
	Reason  string
	// TraceID names this fix's replay trace in Result.Traces.
	TraceID string
}

// Result is the aggregate outcome of a replay run.
type Result struct {
	Fixes []FixOutcome
	// Reproduced counts bit-exact matches; Diverged counts replays that
	// completed with different bits (a real defect — either the pipeline
	// changed behavior or the bundle lies); Skipped counts fixes that
	// could not be attempted.
	Reproduced, Diverged, Skipped int
	// Traces holds one replay trace per attempted fix, in Fixes order
	// (matched by FixOutcome.TraceID).
	Traces []trace.TraceData
}

// SpanShape is the timing-free skeleton of one span: what the pipeline
// did and what it measured, minus how long it took. Replay determinism is
// asserted over shapes — two runs of the same bundle must produce
// identical shape sequences even though wall-clock durations differ.
type SpanShape struct {
	Name   string
	Parent int
	Attrs  map[string]any
}

// Shapes projects a trace to its span shapes.
func Shapes(td trace.TraceData) []SpanShape {
	out := make([]SpanShape, len(td.Spans))
	for i, s := range td.Spans {
		out[i] = SpanShape{Name: s.Name, Parent: s.Parent, Attrs: s.Attrs}
	}
	return out
}

// ShapesEqual reports whether two shape sequences are identical,
// including every attribute value.
func ShapesEqual(a, b []SpanShape) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Parent != b[i].Parent {
			return false
		}
		if !reflect.DeepEqual(a[i].Attrs, b[i].Attrs) {
			return false
		}
	}
	return true
}

// Run replays every fix in b and reports per-fix and aggregate outcomes.
func Run(b *flight.Bundle, opts Options) (*Result, error) {
	if b == nil {
		return nil, fmt.Errorf("replay: nil bundle")
	}
	sc := b.Manifest.Server
	if len(sc.APs) < 2 {
		return nil, fmt.Errorf("replay: bundle records %d APs; need at least 2 (was the server started with -flight-dir but without -ap flags?)", len(sc.APs))
	}
	if opts.SampleEvery < 1 {
		opts.SampleEvery = 1
	}

	aps := make([]spotfi.AP, len(sc.APs))
	for i, a := range sc.APs {
		aps[i] = spotfi.AP{ID: a.ID, Pos: spotfi.Point{X: a.X, Y: a.Y}, NormalAngle: a.NormalRad}
	}
	base := spotfi.DefaultConfig(spotfi.Bounds{
		MinX: sc.Bounds[0], MinY: sc.Bounds[1], MaxX: sc.Bounds[2], MaxY: sc.Bounds[3],
	})
	base.Seed = sc.Seed
	// One worker: estimation results don't depend on parallelism (the
	// per-AP seeds are scheduling-free), but span append order does, and
	// replay promises deterministic traces.
	base.Workers = 1
	modes := sc.Modes
	if modes < 1 {
		modes = 1
	}
	ladder, err := spotfi.BuildLadder(base, aps, modes)
	if err != nil {
		return nil, fmt.Errorf("replay: rebuilding ladder: %w", err)
	}

	// Index the bundle's frames by content hash. Wire (ap, seq) pairs
	// repeat across capture regimes, so the hash is the identity and the
	// (ap, seq) pair is the tiebreak.
	byHash := make(map[uint64][]*csi.Packet, len(b.Packets))
	for _, p := range b.Packets {
		h := flight.PacketHash(p)
		byHash[h] = append(byHash[h], p)
	}

	res := &Result{}
	for i, fr := range b.Manifest.Fixes {
		out := replayOne(i, fr, ladder, byHash, sc, opts)
		res.Fixes = append(res.Fixes, out.outcome)
		if out.trace.ID != "" {
			res.Traces = append(res.Traces, out.trace)
		}
		switch {
		case out.outcome.Skipped:
			res.Skipped++
		case out.outcome.Match:
			res.Reproduced++
		default:
			res.Diverged++
		}
	}
	return res, nil
}

type fixResult struct {
	outcome FixOutcome
	trace   trace.TraceData
}

// replayOne pushes one recorded fix's exact packets through a fresh
// collector and the recorded rung.
func replayOne(idx int, fr flight.FixRecord, ladder []*spotfi.Localizer, byHash map[uint64][]*csi.Packet, sc flight.ServerConfig, opts Options) fixResult {
	out := fixResult{outcome: FixOutcome{
		Index: idx, MAC: fr.MAC, Mode: fr.Mode,
		RecordedX:    math.Float64frombits(fr.XBits),
		RecordedY:    math.Float64frombits(fr.YBits),
		RecordedConf: math.Float64frombits(fr.ConfBits),
	}}
	skip := func(format string, args ...any) fixResult {
		out.outcome.Skipped = true
		out.outcome.Reason = fmt.Sprintf(format, args...)
		return out
	}
	diverge := func(format string, args ...any) fixResult {
		out.outcome.Reason = fmt.Sprintf(format, args...)
		return out
	}

	if !fr.Covered {
		return skip("not covered: frames were evicted from the capture ring before the dump")
	}
	if len(fr.APs) < 2 {
		return skip("fix records %d APs; need at least 2", len(fr.APs))
	}
	modeIdx := 0
	if fr.Mode != "" {
		modeIdx = -1
		for i := range ladder {
			if admit.Mode(i).String() == fr.Mode {
				modeIdx = i
				break
			}
		}
		if modeIdx < 0 {
			return skip("mode %q has no rung in a %d-deep ladder", fr.Mode, len(ladder))
		}
	}

	// Resolve every referenced frame up front, preserving the recorded
	// per-AP order (which is the burst-assembly order the production
	// collector emitted).
	batch := len(fr.APs[0].Seqs)
	feed := make(map[int][]*csi.Packet, len(fr.APs))
	for _, fa := range fr.APs {
		if len(fa.Seqs) != batch || len(fa.Hashes) != batch {
			return skip("AP %d records %d/%d seqs/hashes; burst batch is %d", fa.AP, len(fa.Seqs), len(fa.Hashes), batch)
		}
		pkts := make([]*csi.Packet, batch)
		for j, h := range fa.Hashes {
			var found *csi.Packet
			for _, cand := range byHash[h] {
				if cand.APID == fa.AP && cand.Seq == fa.Seqs[j] {
					found = cand
					break
				}
			}
			if found == nil {
				return skip("AP %d seq %d (hash %016x) is not in the bundle", fa.AP, fa.Seqs[j], h)
			}
			pkts[j] = found
		}
		feed[fa.AP] = pkts
	}

	// A fresh collector per fix, pinned to the fix's recorded timestamp:
	// every buffered packet carries the same deterministic arrival time,
	// so the assemble span and TTL logic cannot observe the host clock.
	at := time.Unix(0, fr.AtNs)
	var (
		gotBursts map[int][]*csi.Packet
		gotTrace  *trace.Trace
	)
	coll, err := server.NewCollector(server.CollectorConfig{
		BatchSize:   batch,
		MinAPs:      len(fr.APs),
		MaxBuffered: batch,
		Now:         func() time.Time { return at },
	}, func(mac string, bursts map[int][]*csi.Packet, tr *trace.Trace) {
		gotBursts, gotTrace = bursts, tr
	})
	if err != nil {
		return skip("collector config: %v", err)
	}
	tracer := trace.New(trace.Config{SampleEvery: opts.SampleEvery, Capacity: 1})
	coll.SetTracer(tracer)

	apIDs := make([]int, 0, len(feed))
	for ap := range feed {
		apIDs = append(apIDs, ap)
	}
	sort.Ints(apIDs)
	for _, ap := range apIDs {
		for _, p := range feed[ap] {
			if err := coll.Add(p); err != nil {
				return diverge("re-ingesting AP %d seq %d: %v", ap, p.Seq, err)
			}
		}
	}
	if gotBursts == nil {
		return diverge("burst did not re-assemble: collector never emitted")
	}

	loc, _, _, err := ladder[modeIdx].LocalizeBurstsTraced(gotBursts, gotTrace)
	if gotTrace != nil {
		gotTrace.Finish()
		if recent := tracer.Recent(); len(recent) > 0 {
			out.trace = recent[0]
			out.outcome.TraceID = recent[0].ID
		}
	}
	if err != nil {
		return diverge("localize: %v (recorded fix succeeded)", err)
	}

	out.outcome.X, out.outcome.Y, out.outcome.Confidence = loc.X, loc.Y, loc.Confidence
	xOK := math.Float64bits(loc.X) == fr.XBits
	yOK := math.Float64bits(loc.Y) == fr.YBits
	cOK := math.Float64bits(loc.Confidence) == fr.ConfBits
	modeOK := loc.Mode == fr.Mode
	if xOK && yOK && cOK && modeOK {
		out.outcome.Match = true
		return out
	}
	var why []string
	if !xOK {
		why = append(why, fmt.Sprintf("x %v != recorded %v", loc.X, out.outcome.RecordedX))
	}
	if !yOK {
		why = append(why, fmt.Sprintf("y %v != recorded %v", loc.Y, out.outcome.RecordedY))
	}
	if !cOK {
		why = append(why, fmt.Sprintf("confidence %v != recorded %v", loc.Confidence, out.outcome.RecordedConf))
	}
	if !modeOK {
		why = append(why, fmt.Sprintf("mode %q != recorded %q", loc.Mode, fr.Mode))
	}
	return diverge("diverged: %s", strings.Join(why, "; "))
}
