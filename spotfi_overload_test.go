package spotfi_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/apnode"
	"spotfi/internal/chaos"
	"spotfi/internal/csi"
	"spotfi/internal/feed"
	"spotfi/internal/flight"
	"spotfi/internal/obs"
	"spotfi/internal/server"
	"spotfi/internal/service"
	"spotfi/internal/sim"
	"spotfi/internal/testbed"
)

// cycleSource synthesizes an unbounded packet stream round-robining over
// several targets — one AP's view of a crowded floor, used to flood the
// server far past its localization capacity.
type cycleSource struct {
	syns []*sim.Synthesizer
	macs []string
	i    int
}

func (s *cycleSource) Next() (*csi.Packet, error) {
	k := s.i % len(s.syns)
	s.i++
	return s.syns[k].NextPacket(s.macs[k]), nil
}

// phasedSource switches one long-lived AP stream between two regimes
// without reconnecting (a reconnect would — correctly — count as breaker
// churn): an unthrottled multi-target flood while *flood* is set, then a
// throttled single-target trickle the server can comfortably keep up with.
type phasedSource struct {
	flood    *atomic.Bool
	floodSrc apnode.PacketSource
	calmSrc  apnode.PacketSource
	throttle time.Duration
}

func (s *phasedSource) Next() (*csi.Packet, error) {
	if s.flood.Load() {
		return s.floodSrc.Next()
	}
	time.Sleep(s.throttle)
	return s.calmSrc.Next()
}

// TestOverloadSoak floods the serving graph spotfi-server runs
// (internal/service) — AP agents → wire → server → collector → admission
// queue → degraded-mode localization → fix feed — at far above worker
// capacity, with one AP phase-skewed the whole flood.
// The overload-resilience layer must hold the line on every axis at once:
//
//   - admission control sheds (capacity eviction, hard deadline, CoDel)
//     instead of queue sojourn growing without bound — every burst that
//     does reach a worker waited less than the freshness deadline;
//   - the mode ladder steps the pipeline down under pressure and fixes
//     keep flowing, stamped with the degraded mode;
//   - the skewed AP's circuit breaker trips open on its collapsed burst
//     scores, quarantining it out of localization;
//   - once the flood stops, the breaker half-opens, probes the now-healthy
//     AP back in, and the ladder climbs back to full fidelity;
//   - drain tears everything down without leaking goroutines.
func TestOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak run")
	}
	d := testbed.Office(42)
	const (
		skewedAP  = 0
		floodTgts = 6 // concurrent targets during the flood
		calmTgt   = 4 // the one target of the recovery phase
	)

	// Flight recorder armed for the whole soak: the skewed AP's breaker
	// opening must freeze a bundle mid-flood, and the drain dump at the
	// end feeds the replay gate. SPOTFI_FLIGHT_BUNDLE_DIR (set by CI)
	// keeps the bundles around as an artifact; locally they land in a
	// temp dir.
	bundleDir := os.Getenv("SPOTFI_FLIGHT_BUNDLE_DIR")
	if bundleDir == "" {
		bundleDir = t.TempDir()
	}
	cfg := service.DefaultConfig()
	cfg.Pipeline = spotfi.DefaultConfig(d.Bounds)
	cfg.APs = spotfi.DeploymentAPs(d)
	cfg.Listen = "127.0.0.1:0"
	cfg.Logger = spotfi.NewTestLogger(t)
	cfg.Workers = 2
	cfg.Collector = server.CollectorConfig{BatchSize: 6, MinAPs: 3, MaxBuffered: 64, BurstTTL: 500 * time.Millisecond}
	// The deadline is a sojourn-histogram bucket bound, so the histogram
	// can prove that no delivered burst outlived it.
	cfg.Queue = admit.QueueConfig{Capacity: 32, Target: 60 * time.Millisecond, Deadline: 500 * time.Millisecond, Interval: 250 * time.Millisecond}
	// UnhealthyBelow sits far under the healthy fleet's occasional
	// single-burst dips (~0.15 of bursts score 0.1–0.3 even on clean APs),
	// so the phase-skewed AP's collapsed scores are what trip its breaker.
	// (Its NaN packets never reach the server: the agent drops reports it
	// cannot encode.)
	cfg.Breaker = admit.BreakerConfig{Window: 10 * time.Second, Failures: 6, Cooldown: 1500 * time.Millisecond, Probes: 2, UnhealthyBelow: 0.05}
	// Small rings and a long cooldown: a dump serializes every ring, and
	// on a starved CI core repeated mid-flood dumps would steal the CPU
	// the breaker's probation needs. One breaker-open bundle is the
	// assertion; the drain bundle carries the replayable end state. No
	// earlier dump may start a cooldown that swallows the breaker-open
	// one: the low-confidence trigger is off, and the SLO tracker first
	// samples (and so first burns, on the flood's shed rate) a minute in,
	// after the waits below have seen the breaker open.
	cfg.Flight.Dir = bundleDir
	cfg.Flight.FramesPerAP = 128
	cfg.Flight.MaxBundles = 4
	cfg.FlightConfidenceFloor = 0
	cfg.SLO.Tick = time.Minute
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := svc.Registry

	// Every fix the service publishes, as a /debug/fixes client sees it.
	sub, err := svc.Feed.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	var (
		fixMu sync.Mutex
		fixes []feed.Fix
	)
	fixesDone := make(chan struct{})
	go func() {
		defer close(fixesDone)
		for fx := range sub.Fixes() {
			fixMu.Lock()
			fixes = append(fixes, fx)
			fixMu.Unlock()
		}
	}()

	goroutinesBefore := runtime.NumGoroutine()
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	waitFor := func(what string, timeout time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	skewedState := func() admit.State {
		return admit.State(gauge(reg, "spotfi_ap_breaker_state", fmt.Sprintf("ap=\"%d\"", skewedAP)))
	}
	mode := func() admit.Mode { return admit.Mode(gauge(reg, "spotfi_admit_mode", "")) }
	sheds := func(r admit.ShedReason) uint64 {
		return reg.Counter("spotfi_admit_shed_total", "", obs.Labels{"reason": string(r)}).Value()
	}

	// One long-lived connection per AP for the whole soak: the flood is a
	// traffic regime, not a reconnect storm, so breaker churn accounting
	// stays clean. The skewed AP streams through a miscalibrated RF chain
	// (inter-antenna phase ramp + per-packet jitter) for the flood phase.
	var flood atomic.Bool
	flood.Store(true)
	var agents sync.WaitGroup
	for apIdx := range d.APs {
		syns := make([]*sim.Synthesizer, floodTgts)
		macs := make([]string, floodTgts)
		for tgt := 0; tgt < floodTgts; tgt++ {
			syn, err := sim.NewSynthesizer(d.Link(apIdx, tgt), d.Band, d.Array, d.Imp,
				rand.New(rand.NewSource(int64(100*apIdx+tgt))))
			if err != nil {
				t.Fatalf("AP %d target %d: %v", apIdx, tgt, err)
			}
			syns[tgt] = syn
			macs[tgt] = testbed.TargetMAC(tgt)
		}
		var floodSrc apnode.PacketSource = &cycleSource{syns: syns, macs: macs}
		if apIdx == skewedAP {
			// A miscalibrated RF chain (inter-antenna phase ramp + jitter)
			// plus sporadic NaN CSI: the phase skew poisons the AP's burst
			// scores; the non-finite packets are rejected at ingest and
			// each one feeds the AP's breaker a hard failure.
			floodSrc = chaos.WrapSource(floodSrc, chaos.SourceConfig{
				Seed:           int64(7 + apIdx),
				PhaseRampRad:   1.8,
				PhaseJitterRad: 0.8,
				NaNProb:        0.02,
			})
		}
		calmSyn, err := sim.NewSynthesizer(d.Link(apIdx, calmTgt), d.Band, d.Array, d.Imp,
			rand.New(rand.NewSource(int64(9000+apIdx))))
		if err != nil {
			t.Fatalf("AP %d calm: %v", apIdx, err)
		}
		agent := &apnode.Agent{
			APID:       apIdx,
			ServerAddr: addr.String(),
			Source: &phasedSource{
				flood:    &flood,
				floodSrc: floodSrc,
				// ~100 ms per packet per AP ⇒ a handful of bursts per
				// second fleet-wide: comfortably under two -race workers'
				// localization throughput, so queue sojourn collapses and
				// the ladder can climb.
				calmSrc:  &apnode.SynthSource{Syn: calmSyn, TargetMAC: testbed.TargetMAC(calmTgt)},
				throttle: 100 * time.Millisecond,
			},
		}
		agents.Add(1)
		go func(a *apnode.Agent, id int) {
			defer agents.Done()
			if err := a.RunWithRetry(ctx, 100, 5*time.Millisecond); err != nil && ctx.Err() == nil {
				t.Errorf("agent %d: %v", id, err)
			}
		}(agent, apIdx)
	}

	// --- Flood phase: ~6 unthrottled target streams per AP against 2
	// workers. Hold the flood until every overload mechanism has visibly
	// engaged. ---
	fixCount := func() int {
		fixMu.Lock()
		defer fixMu.Unlock()
		return len(fixes)
	}
	waitFor("admission control shedding", 30*time.Second, func() bool {
		return shedTotal(reg) > 0
	})
	waitFor("ladder stepping down", 30*time.Second, func() bool {
		return mode() >= admit.ModeFastPath
	})
	waitFor("skewed AP breaker open", 30*time.Second, func() bool {
		return skewedState() == admit.StateOpen
	})
	waitFor("flight bundle frozen on breaker open", 30*time.Second, func() bool {
		return reg.Counter("spotfi_flight_dumps_total", "", obs.Labels{"trigger": string(flight.TriggerBreakerOpen)}).Value() > 0
	})
	waitFor("fixes flowing during overload", 30*time.Second, func() bool {
		return fixCount() > 0
	})
	floodFixes := fixCount()

	// --- Recovery phase: drop to a trickle the workers easily absorb. The
	// skewed AP is clean now; its breaker must probe it back in, and the
	// ladder must climb back to full fidelity. ---
	flood.Store(false)
	// The reopen backoff may have pushed the cooldown to its 8× cap during
	// the flood (every half-open probe met another NaN), so allow a full
	// backoff cycle before the clean probes land.
	waitFor("breaker closing after probation", 60*time.Second, func() bool {
		return skewedState() == admit.StateClosed
	})
	waitFor("ladder back to full fidelity", 30*time.Second, func() bool {
		return mode() == admit.ModeFull
	})
	waitFor("fixes flowing after recovery", 30*time.Second, func() bool {
		return fixCount() > floodFixes
	})

	// A post-recovery full-mode fix for the calm target lands near truth.
	waitFor("full-mode fix for the calm target", 30*time.Second, func() bool {
		fixMu.Lock()
		defer fixMu.Unlock()
		for i := len(fixes) - 1; i >= 0; i-- {
			f := fixes[i]
			if f.MAC == testbed.TargetMAC(calmTgt) && f.Mode == admit.ModeFull.String() {
				if e := (spotfi.Point{X: f.X, Y: f.Y}).Dist(d.Targets[calmTgt]); e > 3.5 {
					t.Fatalf("recovered fix (%.2f, %.2f) is %.2f m from truth %v", f.X, f.Y, e, d.Targets[calmTgt])
				}
				return true
			}
		}
		return false
	})

	// --- Drain: stop intake, stop assembly, drain the queue, join the
	// pool, flush the drain bundle CI hands to the replay gate. Nothing
	// may leak. ---
	cancel()
	agents.Wait()
	drained := svc.Drain()
	<-fixesDone
	if sub.Dropped() {
		t.Error("the fix-feed subscriber was dropped; the fix tally is incomplete")
	}

	// Every delivered burst respected the hard freshness deadline — the
	// stale-first shed policy means overload manifests as sheds, not as
	// unbounded queue sojourn.
	sojourn := sojourns(reg)
	if sojourn.Count() == 0 {
		t.Fatal("no delivered sojourns recorded")
	}
	if within := sojourn.CountAtOrBelow(cfg.Queue.Deadline.Seconds()); within != sojourn.Count() {
		t.Fatalf("%d of %d delivered sojourns exceed the %v freshness deadline",
			sojourn.Count()-within, sojourn.Count(), cfg.Queue.Deadline)
	}

	// Degraded-mode fixes actually happened and carried their mode label.
	degraded := 0
	for _, f := range fixes {
		if f.Mode != admit.ModeFull.String() {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("no fix was produced in a degraded mode despite the ladder stepping down")
	}

	// The flood pushed well past capacity, so capacity eviction must have
	// fired (alongside whatever the deadline and CoDel shed).
	if sheds(admit.ShedFull) == 0 {
		t.Error("no capacity eviction at 5× overload — fair shedding never engaged")
	}

	// The pool, the service's tickers and listener, and the agent
	// goroutines are gone; nothing else grew.
	waitFor("goroutines back to baseline", 10*time.Second, func() bool {
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})

	// The flood left a breaker-open bundle behind, and the drain bundle
	// carries replayable fixes: its frame rings must still cover at least
	// the most recent fixes, and the frames must read back as SFT1.
	bundles, err := os.ReadDir(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	sawBreakerBundle := false
	for _, b := range bundles {
		if strings.HasSuffix(b.Name(), "-"+string(flight.TriggerBreakerOpen)) {
			sawBreakerBundle = true
		}
	}
	if !sawBreakerBundle {
		t.Error("no breaker-open flight bundle despite the breaker tripping")
	}
	loaded, err := flight.LoadBundle(filepath.Join(bundleDir, drained.Bundle))
	if err != nil {
		t.Fatalf("loading drain bundle: %v", err)
	}
	if len(loaded.Packets) == 0 {
		t.Error("drain bundle has no frames")
	}
	coveredFixes := 0
	for _, fr := range loaded.Manifest.Fixes {
		if fr.Covered {
			coveredFixes++
		}
	}
	if len(loaded.Manifest.Fixes) > 0 && coveredFixes == 0 {
		t.Error("drain bundle recorded fixes but none is frame-covered — rings evicted everything")
	}

	t.Logf("soak: %d fixes (%d degraded), %d delivered sojourns, sheds full=%v stale=%v codel=%v drain=%v, drained %+v",
		len(fixes), degraded, sojourn.Count(),
		sheds(admit.ShedFull), sheds(admit.ShedStale), sheds(admit.ShedCoDel), sheds(admit.ShedDrain), drained)
}

// gauge reads the gauge name{labels} off reg's snapshot, where labels
// is the rendered label set (`ap="0"`, "" for none); absent reads 0.
func gauge(reg *obs.Registry, name, labels string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Labels == labels {
			return s.Value
		}
	}
	return 0
}

// shedTotal sums spotfi_admit_shed_total over every reason.
func shedTotal(reg *obs.Registry) (n uint64) {
	for _, r := range admit.ShedReasons() {
		n += reg.Counter("spotfi_admit_shed_total", "", obs.Labels{"reason": string(r)}).Value()
	}
	return n
}

// sojourns is the admission queue's delivered-sojourn histogram.
func sojourns(reg *obs.Registry) *obs.Histogram {
	return reg.Histogram("spotfi_admit_queue_sojourn_seconds", "", obs.LatencyBuckets, nil)
}
