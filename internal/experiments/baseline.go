package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"spotfi/internal/stats"
)

// BaselineSchema versions the baseline file format; Compare refuses files
// written by a different schema rather than mis-reading them.
const BaselineSchema = 1

// SeriesStats is the accuracy fingerprint of one figure series.
type SeriesStats struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
}

// FigureStats records one figure's accuracy and cost in a baseline.
type FigureStats struct {
	Series map[string]SeriesStats `json:"series"`
	// WallSeconds is the figure's end-to-end wall time. Machine-dependent:
	// Compare only gates it by a loose factor.
	WallSeconds float64 `json:"wall_seconds"`
	// AllocBytes and Allocs are heap-allocation deltas over the figure
	// (runtime.MemStats TotalAlloc / Mallocs), a machine-independent proxy
	// for pipeline cost.
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
}

// BaselineOpts pins the experiment scale a baseline was recorded at.
// Accuracy is deterministic under fixed opts, so comparing runs with
// different opts would gate on noise from scale, not regressions.
type BaselineOpts struct {
	Seed       int64 `json:"seed"`
	Packets    int   `json:"packets"`
	MaxTargets int   `json:"max_targets"`
	Repeats    int   `json:"repeats"`
}

// Baseline is the machine-readable accuracy/perf fingerprint of one
// spotfi-bench run: what BENCH_<runid>.json holds and what the CI
// bench-baseline job diffs against the committed BENCH_baseline.json.
type Baseline struct {
	Schema int    `json:"schema"`
	RunID  string `json:"run_id"`
	// CreatedAt is an RFC 3339 timestamp, informational only.
	CreatedAt string                 `json:"created_at"`
	Opts      BaselineOpts           `json:"opts"`
	Figures   map[string]FigureStats `json:"figures"`
}

// NewBaseline returns an empty baseline for the given run.
func NewBaseline(runID, createdAt string, opts Options) *Baseline {
	return &Baseline{
		Schema:    BaselineSchema,
		RunID:     runID,
		CreatedAt: createdAt,
		Opts: BaselineOpts{
			Seed:       opts.Seed,
			Packets:    opts.Packets,
			MaxTargets: opts.MaxTargets,
			Repeats:    opts.Repeats,
		},
		Figures: make(map[string]FigureStats),
	}
}

// AddFigure folds one figure result (plus its measured cost) into the
// baseline.
func (b *Baseline) AddFigure(r *Result, wallSeconds float64, allocBytes, allocs uint64) {
	fs := FigureStats{
		Series:      make(map[string]SeriesStats, len(r.Series)),
		WallSeconds: wallSeconds,
		AllocBytes:  allocBytes,
		Allocs:      allocs,
	}
	for _, s := range r.Series {
		if len(s.Values) == 0 {
			continue
		}
		fs.Series[s.Label] = SeriesStats{
			N:      len(s.Values),
			Median: stats.Median(s.Values),
			P90:    stats.Percentile(s.Values, 90),
		}
	}
	b.Figures[r.ID] = fs
}

// Only returns a copy of b that holds just figure id (no figures when b
// lacks it). Comparing a single-figure run against it gates that figure
// without reporting every figure the run skipped as missing.
func (b *Baseline) Only(id string) *Baseline {
	out := *b
	out.Figures = make(map[string]FigureStats, 1)
	if fs, ok := b.Figures[id]; ok {
		out.Figures[id] = fs
	}
	return &out
}

// WriteFile writes the baseline as indented JSON.
func (b *Baseline) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBaseline reads a baseline file and checks its schema.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return nil, fmt.Errorf("experiments: %s: schema %d, want %d", path, b.Schema, BaselineSchema)
	}
	return &b, nil
}

// Tolerance bounds how much worse a run may be than its baseline before
// Compare flags a regression. Improvements never fail.
type Tolerance struct {
	// ErrRel and ErrAbs bound accuracy stats (median/p90): a current value
	// fails when it exceeds base + max(ErrAbs, base·ErrRel). Both slack
	// terms matter — near-zero baselines need the absolute floor, large
	// ones the relative one.
	ErrRel float64
	ErrAbs float64
	// WallFactor bounds wall time (machine-dependent, so loose).
	WallFactor float64
	// AllocFactor bounds allocation deltas (mostly deterministic, but the
	// runtime owns some background allocation).
	AllocFactor float64
}

// DefaultTolerance matches the CI bench-baseline gate: accuracy within
// 25% relative / 5 cm absolute, wall time within 5×, allocations within 3×.
func DefaultTolerance() Tolerance {
	return Tolerance{ErrRel: 0.25, ErrAbs: 0.05, WallFactor: 5, AllocFactor: 3}
}

func (t Tolerance) fill() Tolerance {
	d := DefaultTolerance()
	if t.ErrRel <= 0 {
		t.ErrRel = d.ErrRel
	}
	if t.ErrAbs <= 0 {
		t.ErrAbs = d.ErrAbs
	}
	if t.WallFactor <= 0 {
		t.WallFactor = d.WallFactor
	}
	if t.AllocFactor <= 0 {
		t.AllocFactor = d.AllocFactor
	}
	return t
}

// Compare diffs cur against base and returns one violation string per
// regression beyond tol (empty slice = pass). A figure or series on only
// one side is a violation: missing from cur is lost coverage, missing from
// base would ship ungated until the baseline is regenerated. Mismatched run
// opts are a single violation: cross-scale numbers are not comparable.
func Compare(base, cur *Baseline, tol Tolerance) []string {
	tol = tol.fill()
	if base.Opts != cur.Opts {
		return []string{fmt.Sprintf("opts mismatch: baseline %+v vs current %+v (rerun with matching -seed/-packets/-targets/-repeats)",
			base.Opts, cur.Opts)}
	}
	var out []string
	for _, id := range sortedKeys(cur.Figures) {
		if _, ok := base.Figures[id]; !ok {
			out = append(out, fmt.Sprintf("%s: not in baseline, so ungated (regenerate the baseline with -write-baseline)", id))
		}
	}
	for _, id := range sortedKeys(base.Figures) {
		bf := base.Figures[id]
		cf, ok := cur.Figures[id]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from current run", id))
			continue
		}
		for _, lab := range sortedKeys(cf.Series) {
			if _, ok := bf.Series[lab]; !ok {
				out = append(out, fmt.Sprintf("%s/%s: series not in baseline, so ungated (regenerate the baseline with -write-baseline)", id, lab))
			}
		}
		for _, lab := range sortedKeys(bf.Series) {
			bs := bf.Series[lab]
			cs, ok := cf.Series[lab]
			if !ok {
				out = append(out, fmt.Sprintf("%s/%s: series missing from current run", id, lab))
				continue
			}
			if cs.N != bs.N {
				out = append(out, fmt.Sprintf("%s/%s: n=%d, baseline %d (sample-size drift)", id, lab, cs.N, bs.N))
			}
			if v := accuracyViolation(id, lab, "median", bs.Median, cs.Median, tol); v != "" {
				out = append(out, v)
			}
			if v := accuracyViolation(id, lab, "p90", bs.P90, cs.P90, tol); v != "" {
				out = append(out, v)
			}
		}
		if bf.WallSeconds > 0 && cf.WallSeconds > bf.WallSeconds*tol.WallFactor {
			out = append(out, fmt.Sprintf("%s: wall %.2fs > %.0f× baseline %.2fs", id, cf.WallSeconds, tol.WallFactor, bf.WallSeconds))
		}
		if bf.AllocBytes > 0 && float64(cf.AllocBytes) > float64(bf.AllocBytes)*tol.AllocFactor {
			out = append(out, fmt.Sprintf("%s: alloc %d B > %.0f× baseline %d B", id, cf.AllocBytes, tol.AllocFactor, bf.AllocBytes))
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// accuracyViolation gates one accuracy stat one-sidedly: only getting
// worse (larger error) beyond the combined slack fails.
func accuracyViolation(id, lab, stat string, base, cur float64, tol Tolerance) string {
	slack := base * tol.ErrRel
	if tol.ErrAbs > slack {
		slack = tol.ErrAbs
	}
	if cur > base+slack {
		return fmt.Sprintf("%s/%s: %s %.4f > baseline %.4f + %.4f", id, lab, stat, cur, base, slack)
	}
	return ""
}
