package quality

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spotfi/internal/obs"
)

func scored(overall float64, aps ...APScore) Score {
	return Score{Overall: overall, PerAP: aps}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.Observe(scored(0.5))
	if h := m.APHealth(1); h != 1 {
		t.Fatalf("nil monitor APHealth = %v", h)
	}
	if s := m.Snapshot(); s.Bursts != 0 {
		t.Fatalf("nil monitor Snapshot = %+v", s)
	}
	if f := m.Floor(); f != 0 {
		t.Fatalf("nil monitor Floor = %v", f)
	}
}

func TestMonitorMetricsAndFloor(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor(reg, Config{Floor: 0.5})
	m.Observe(scored(0.9, apScore(1, 0.02, 40, 0.8, 0.9)))
	m.Observe(scored(0.2, apScore(1, 0.02, 40, 0.8, 0.2)))
	m.Observe(scored(0.8, apScore(2, 0.02, 40, 0.8, 0.8)))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"spotfi_quality_score_count 3",
		"spotfi_quality_bursts_total 3",
		"spotfi_quality_low_total 1",
		`spotfi_ap_health{ap="1"}`,
		`spotfi_ap_health{ap="2"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	snap := m.Snapshot()
	if snap.Bursts != 3 || snap.LowBursts != 1 || snap.Floor != 0.5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.APs) != 2 {
		t.Fatalf("APs = %d, want 2", len(snap.APs))
	}
	if len(snap.Recent) != 3 || snap.Recent[0].Overall != 0.8 {
		t.Fatalf("recent (newest first) = %+v", snap.Recent)
	}
}

func TestMonitorNilRegistry(t *testing.T) {
	m := NewMonitor(nil, Config{})
	for i := 0; i < 10; i++ {
		m.Observe(scored(0.1, apScore(1, 0.3, 40, 0.2, 0.1)))
	}
	snap := m.Snapshot()
	if snap.Bursts != 10 || snap.LowBursts != 10 {
		t.Fatalf("registry-less monitor snapshot = %+v", snap)
	}
	if h := m.APHealth(1); h > 0.5 {
		t.Fatalf("bad AP health = %.3f, want low", h)
	}
}

func TestMonitorRingWraps(t *testing.T) {
	m := NewMonitor(nil, Config{})
	const n = recentBursts + 6
	for i := 0; i < n; i++ {
		m.Observe(scored(float64(i) / n))
	}
	snap := m.Snapshot()
	if len(snap.Recent) != recentBursts {
		t.Fatalf("ring = %d entries, want %d", len(snap.Recent), recentBursts)
	}
	newest, oldest := snap.Recent[0].Overall, snap.Recent[recentBursts-1].Overall
	if newest != float64(n-1)/n || oldest != float64(6)/n {
		t.Fatalf("ring order wrong: newest %v, oldest %v", newest, oldest)
	}
}

func TestMonitorHandlerJSONAndHTML(t *testing.T) {
	m := NewMonitor(nil, Config{})
	m.now = func() time.Time { return time.Unix(1700000000, 0) }
	for i := 0; i < 8; i++ {
		m.Observe(scored(0.85,
			apScore(1, 0.02, 40, 0.8, 0.9),
			apScore(2, 0.25, 80, 0.3, 0.2)))
	}

	rr := httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/quality", nil))
	if rr.Code != 200 {
		t.Fatalf("JSON status = %d", rr.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.Bursts != 8 || len(snap.APs) != 2 {
		t.Fatalf("JSON snapshot = %+v", snap)
	}

	rr = httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/quality?n=2", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Recent) != 2 {
		t.Fatalf("n=2 returned %d recent bursts", len(snap.Recent))
	}

	rr = httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/quality?view=html", nil))
	if rr.Code != 200 {
		t.Fatalf("HTML status = %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{"spotfi estimate quality", "AP health", "<svg", "ap 1", "ap 2"} {
		if !strings.Contains(body, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
}

func TestMonitorHandlerEmpty(t *testing.T) {
	m := NewMonitor(nil, Config{})
	rr := httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/quality?view=html", nil))
	if rr.Code != 200 {
		t.Fatalf("empty HTML status = %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "no bursts scored yet") {
		t.Fatal("empty scoreboard missing placeholder")
	}
}
