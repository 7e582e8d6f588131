package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spotfi/internal/obs/trace"
)

// span is one timed layer call: name, start, end, the span that caused
// it, and the fix it belongs to (-1 for work not tied to one fix).
type span struct {
	Name   string `json:"name"`
	Fix    int    `json:"fix"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory. A nil recorder records
// nothing, so untraced runs pay only a nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(traced bool) *recorder {
	if !traced {
		return nil
	}
	return &recorder{t0: time.Now()}
}

// add records a finished span and returns its index (-1 when disabled).
func (r *recorder) add(name string, fix, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Fix: fix, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return len(r.spans) - 1
}

// importTrace adds the spans the pipeline recorded into td under parent,
// prefixing their names with "spotfi." so they read apart from the
// benchmark's own spans. It returns the index of the trace's root span
// (-1 when nothing was recorded).
func (r *recorder) importTrace(td *trace.TraceData, fix, parent int) int {
	if r == nil || td == nil || len(td.Spans) == 0 {
		return -1
	}
	idx := make([]int, len(td.Spans))
	for i, sd := range td.Spans {
		p := parent
		if sd.Parent >= 0 && sd.Parent < i {
			p = idx[sd.Parent]
		}
		start := td.Start.Add(time.Duration(sd.StartNS))
		idx[i] = r.add("spotfi."+sd.Name, fix, p, start, start.Add(time.Duration(sd.DurNS)))
	}
	return idx[0]
}

// layerTime is one span name's call count, total time and self time.
type layerTime struct {
	n           int
	total, self time.Duration
}

// selfTimes returns per-name totals. A span's self time is its duration
// minus the part of its interval that its children's spans cover.
func (r *recorder) selfTimes() map[string]*layerTime {
	out := make(map[string]*layerTime)
	if r == nil {
		return out
	}
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range r.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := time.Duration(s.End - s.Start)
		lt.n++
		lt.total += dur
		lt.self += dur - r.covered(s, children[i])
	}
	return out
}

// covered returns how much of s's interval the union of kids covers.
func (r *recorder) covered(s span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(r.spans[k].Start, s.Start), min(r.spans[k].End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			sum += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	sum += curB - curA
	return time.Duration(sum)
}

// spanFileFixes bounds how many fixes' spans write() puts on disk; the
// self-time summary always covers every span.
const spanFileFixes = 200

// write stores the spans of the first spanFileFixes fixes as JSON lines,
// followed by one self-time summary line per span name.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if s.Fix >= spanFileFixes {
			continue
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	st := r.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := st[n]
		if err := enc.Encode(map[string]any{
			"summary": n, "calls": lt.n,
			"total_ms": float64(lt.total) / 1e6, "self_ms": float64(lt.self) / 1e6,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
var spanDir = filepath.Join(".bench_build", "spans")

// spanPath is where a traced run writes its spans.
func spanPath(workload string, seed int64) string {
	return filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

// findTrace returns the completed trace with the given ID from the
// tracer's recent ring.
func findTrace(t *trace.Tracer, id string) *trace.TraceData {
	for _, td := range t.Recent() {
		if td.ID == id {
			td := td
			return &td
		}
	}
	return nil
}

// durationsMs returns the durations of every span named name, in ms.
func (r *recorder) durationsMs(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
