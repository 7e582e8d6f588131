package main

import (
	"testing"
	"time"

	"spotfi"
	"spotfi/internal/obs"
)

// small returns a copy of a closed-loop workload pooling fewer
// deployments, so a test run takes seconds.
func small(t *testing.T, name string, scenes int) *workload {
	t.Helper()
	w := findWorkload(name)
	if w == nil || w.deployment == nil {
		t.Fatalf("no closed-loop workload %q", name)
	}
	c := *w
	c.scenes = scenes
	return &c
}

func TestSeedDeterminesInputs(t *testing.T) {
	pm := spotfi.NewPipelineMetrics(obs.NewRegistry())
	for _, name := range []string{"office-full", "corridor-fastpath"} {
		w := small(t, name, 2)
		hash := func(seed int64) string {
			in, err := buildClosed(w, seed, pm)
			if err != nil {
				t.Fatal(err)
			}
			return in.hash()
		}
		a, b, c := hash(1), hash(1), hash(2)
		if a != b {
			t.Errorf("%s: seed 1 built different inputs twice", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 built identical inputs", name)
		}
	}
	cfg := spotfi.DefaultConfig(spotfi.Bounds{MaxX: 16, MaxY: 10})
	hash := func(seed int64) string {
		in, err := buildSurge(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return in.hash()
	}
	if a, b, c := hash(1), hash(1), hash(2); a != b || a == c {
		t.Errorf("serve-surge: seed 1 hashes %s and %s, seed 2 %s", a, b, c)
	}
}

// TestClosedLoopWorkRepeats runs each closed-loop workload twice on one
// seed and requires the work counts and error percentiles to repeat
// exactly, whatever the timing.
func TestClosedLoopWorkRepeats(t *testing.T) {
	spanDir = t.TempDir()
	exact := []string{"music.cells_per_packet", "music.dense_fallback_ratio", "cmat.eig_sweeps", "locate.iters", "spotfi.err_m_p90"}
	for _, name := range []string{"office-full", "corridor-fastpath"} {
		w := small(t, name, 1)
		run := func(traced bool, seconds time.Duration) map[string]metric {
			res, viol, err := runClosed(w, runOpts{seed: 7, seconds: seconds, traced: traced})
			if err != nil {
				t.Fatal(err)
			}
			if len(viol) > 0 {
				t.Fatalf("%s: correctness violations: %v", name, viol)
			}
			return res.Metrics
		}
		a, b := run(true, 300*time.Millisecond), run(true, 900*time.Millisecond)
		for _, m := range exact {
			if a[m].Value != b[m].Value {
				t.Errorf("%s: %s was %v, then %v", name, m, a[m].Value, b[m].Value)
			}
		}
		if a["music.cells_per_packet"].Value == 0 || a["locate.iters"].Value == 0 {
			t.Errorf("%s: work counts are zero: %v", name, a)
		}
		u1, u2 := run(false, 300*time.Millisecond), run(false, 900*time.Millisecond)
		if u1["err_m_p50"].Value != u2["err_m_p50"].Value || u1["err_m_p50"].Value <= 0 {
			t.Errorf("%s: err_m_p50 was %v, then %v", name, u1["err_m_p50"].Value, u2["err_m_p50"].Value)
		}
	}
}

// TestSurgeAccounts runs a short traced surge: every offered packet and
// assembled burst must be accounted for and the serving layers must
// report work.
func TestSurgeAccounts(t *testing.T) {
	spanDir = t.TempDir()
	res, viol, err := runSurge(runOpts{seed: 5, seconds: time.Second, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) > 0 {
		t.Fatalf("correctness violations: %v", viol)
	}
	for _, m := range []string{"wire.frames", "server.bursts_emitted", "feed.published", "admit.sojourn_ms_p50"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
		}
	}
}
