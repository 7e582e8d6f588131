package spotfi_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/csi"
	"spotfi/internal/loadgen"
	"spotfi/internal/obs/slo"
	"spotfi/internal/server"
	"spotfi/internal/service"
	"spotfi/internal/wire"
)

// TestLoadgenEndToEnd drives the serving graph spotfi-server runs
// (internal/service: wire listener, collector, admission queue,
// localization workers, fix feed, SLO tracker, debug mux) with the open-loop load generator, and checks the
// whole measurement chain: fixes stream back with measurable packet→fix
// latency, localization error against the scene's ground truth is sane,
// the surge phase sheds at the admission queue, and the SLO tracker sees
// the burn.
func TestLoadgenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("load-generator soak")
	}
	scene, err := loadgen.NewScene(loadgen.SceneConfig{
		Seed: 42, APs: 5, Targets: 8, Positions: 6, APsPerTarget: 3, Batch: 6,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One worker caps fix throughput far below the surge phase's offered
	// rate, so admission shedding engages deterministically. One rung:
	// every fix is full fidelity, so the warm-phase error check below
	// judges full MUSIC.
	cfg := service.DefaultConfig()
	cfg.Pipeline = spotfi.DefaultConfig(scene.Cfg.Bounds)
	for _, ap := range scene.APs {
		cfg.APs = append(cfg.APs, spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle})
	}
	cfg.Listen = "127.0.0.1:0"
	cfg.Logger = spotfi.NewTestLogger(t)
	cfg.Workers = 1
	cfg.Modes = 1
	cfg.Collector = server.CollectorConfig{BatchSize: scene.Cfg.Batch, MinAPs: scene.Cfg.APsPerTarget, MaxBuffered: 64, BurstTTL: 500 * time.Millisecond}
	cfg.Queue = admit.QueueConfig{Capacity: 16, Target: 60 * time.Millisecond, Deadline: 400 * time.Millisecond, Interval: 100 * time.Millisecond}
	// The synthetic scene's hard-multipath positions score poorly by
	// design; like spotfi-loadgen -print-server-flags, push the breakers'
	// failure threshold out of reach so they do not quarantine its APs.
	cfg.Breaker.Failures = 1000000
	cfg.SLO = slo.Config{FastWindow: 2 * time.Second, SlowWindow: 4 * time.Second, Tick: 100 * time.Millisecond, BurnThreshold: 2}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	debug := httptest.NewServer(svc.Handler())
	defer debug.Close()

	// Warm at a rate one worker absorbs, then surge far past it.
	phases, err := loadgen.ParsePhases("warm:2s@4,surge:3s@600")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := loadgen.Run(ctx, loadgen.RunConfig{
		ServerAddr: addr.String(),
		DebugURL:   debug.URL,
		Scene:      scene,
		Phases:     phases,
		Settle:     1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Clean teardown before asserting: no goroutine should still be
	// feeding the stats we read.
	svc.Drain()
	reg := svc.Registry

	if res.FeedErr != "" {
		t.Fatalf("feed error: %s", res.FeedErr)
	}
	if res.SendErrs != 0 {
		t.Fatalf("%d AP streams lost", res.SendErrs)
	}
	if res.TotalFixes == 0 {
		t.Fatal("no fixes flowed")
	}
	if len(res.Phases) != 2 {
		t.Fatalf("%d phases, want 2", len(res.Phases))
	}
	warm, surge := res.Phases[0], res.Phases[1]

	if warm.Offered == 0 || surge.Offered <= warm.Offered {
		t.Fatalf("offered bursts warm=%d surge=%d", warm.Offered, surge.Offered)
	}
	if warm.Fixes == 0 {
		t.Fatal("warm phase produced no fixes")
	}
	// Latency was measured end to end, with plausible values: every fix's
	// latency includes its own localization, so the median is at least
	// half the fastest localization of the scene's bursts (the factor
	// absorbs run-to-run timing noise), and under the test's whole
	// runtime.
	if warm.Latency.Count() == 0 {
		t.Fatal("no latency samples in warm phase")
	}
	floor := fastestLocalize(t, scene, cfg) / 2
	if p50 := warm.Latency.Quantile(0.5); p50 < floor.Seconds() || p50 > 30 {
		t.Fatalf("warm p50 latency %.4fs implausible (floor %v)", p50, floor)
	}
	// Ground truth maps back through the MAC: localization error is sane
	// for a full-fidelity fix (decimeters-to-meters, not tens of meters).
	if len(warm.Errors) == 0 {
		t.Fatal("no localization-error samples in warm phase")
	}
	if best := slices.Min(warm.Errors); best > 8 {
		t.Fatalf("best warm-phase error %.2fm — ground-truth mapping is broken", best)
	}

	// The surge overwhelmed the worker: admission control shed,
	// and the generator saw it in the /metrics deltas.
	if surge.Counters.Shed == 0 {
		t.Fatal("surge phase shed nothing — overload never engaged")
	}
	if surge.Counters.Delivered == 0 {
		t.Fatal("surge phase delivered nothing")
	}
	if shed, delivered := shedTotal(reg), sojourns(reg).Count(); shed == 0 || delivered == 0 {
		t.Fatalf("queue totals shed=%d delivered=%d", shed, delivered)
	}

	// The SLO layer saw the same story: the snapshot parses, covers both
	// objectives, and the shed objective's fast window is burning hot.
	var st slo.Status
	if err := json.Unmarshal(res.SLO, &st); err != nil {
		t.Fatalf("/debug/slo snapshot: %v\n%s", err, res.SLO)
	}
	if len(st.Objectives) != 2 {
		t.Fatalf("SLO snapshot has %d objectives, want 2", len(st.Objectives))
	}
	var shedObj *slo.ObjectiveStatus
	for i := range st.Objectives {
		if st.Objectives[i].Name == "admit_shed" {
			shedObj = &st.Objectives[i]
		}
	}
	if shedObj == nil {
		t.Fatalf("admit_shed objective missing: %s", res.SLO)
	}
	fast := shedObj.Windows[0]
	if fast.Total == 0 || fast.BadFraction == 0 {
		t.Fatalf("shed SLO fast window saw no burn: %+v", fast)
	}

	// The report derives without losing the story.
	report := loadgen.NewReport("e2e", time.Now().UTC().Format(time.RFC3339), loadgen.ReportOpts{}, res)
	if report.Phases[1].ShedRate == 0 {
		t.Fatal("report lost the surge shed rate")
	}
	if report.Phases[0].LatencyP50Ms == 0 || report.Phases[0].ErrMedianM == 0 {
		t.Fatalf("report lost warm-phase latency/error: %+v", report.Phases[0])
	}
	t.Logf("e2e: %d fixes, warm p50 %.1fms err median %.2fm, surge shed rate %.2f",
		res.TotalFixes, report.Phases[0].LatencyP50Ms, report.Phases[0].ErrMedianM, report.Phases[1].ShedRate)
}

// fastestLocalize times the full pipeline on each scene position's
// pre-encoded burst (the frames the generator sends), under cfg's
// pipeline, and returns the fastest run.
func fastestLocalize(t *testing.T, scene *loadgen.Scene, cfg service.Config) time.Duration {
	t.Helper()
	enc, err := loadgen.NewEncoder(scene)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := spotfi.New(cfg.Pipeline, cfg.APs)
	if err != nil {
		t.Fatal(err)
	}
	fastest := time.Duration(math.MaxInt64)
	for p := range scene.Positions {
		bursts := make(map[int][]*csi.Packet)
		for _, a := range scene.APsForPos(p) {
			for _, payload := range enc.Payloads(a, p) {
				pkt, err := wire.DecodeCSIReport(wire.Frame{Type: wire.TypeCSIReport, Payload: payload})
				if err != nil {
					t.Fatal(err)
				}
				bursts[a] = append(bursts[a], pkt)
			}
		}
		start := time.Now()
		if _, _, _, err := loc.LocalizeBurstsTraced(bursts, nil); err != nil {
			t.Fatal(err)
		}
		fastest = min(fastest, time.Since(start))
	}
	return fastest
}
