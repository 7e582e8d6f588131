package service

import (
	"fmt"
	"time"

	"spotfi"
	"spotfi/internal/csi"
	"spotfi/internal/feed"
	"spotfi/internal/flight"
	"spotfi/internal/obs"
	"spotfi/internal/obs/trace"
)

// burstJob is one assembled burst waiting in the admission queue.
type burstJob struct {
	mac    string
	bursts map[int][]*csi.Packet
	tr     *trace.Trace
}

// registerLocalizeMetrics registers the serving-loop series once, before
// any worker starts: Registry registration takes a lock, so hot paths only
// touch the returned handles.
func (s *Service) registerLocalizeMetrics(reg *obs.Registry) {
	s.localizeErrors = reg.Counter("spotfi_server_localize_errors_total",
		"Bursts whose localization failed end-to-end.", nil)
	s.localizePanics = reg.Counter("spotfi_server_localize_panics_total",
		"Localization worker panics recovered; the burst was discarded.", nil)
	s.breakerDrops = reg.Counter("spotfi_server_bursts_breaker_dropped_total",
		"Queued bursts dropped because breakers opened on too many of their APs before a worker picked them up.", nil)
	// HDR-style buckets from 100 µs to 10 s; the grid hits 1.0 (and every
	// decade) exactly, so the default -slo-latency-bound is an exact
	// bucket bound and the SLO's good-count is not snapped.
	s.fixLatency = reg.Histogram("spotfi_fix_latency_seconds",
		"Packet→fix latency: newest CSI sender timestamp in the burst to fix emission. Only observed when sender clocks look like wall clocks.",
		obs.ExpBuckets(100e-6, 10, 5), nil)
}

// fixLatencySane bounds what we are willing to call an end-to-end
// latency: sender timestamps are only comparable to the server clock
// when the AP stamps wall-clock time (spotfi-loadgen does; the sim's
// synthetic 100 ms-per-packet timeline does not). Outside this window
// the observation would poison the latency SLO, so it is skipped.
const fixLatencySane = 10 * time.Minute

// captureNs returns the newest sender timestamp across the burst — the
// fix's capture time on the sender clock.
func captureNs(bursts map[int][]*csi.Packet) int64 {
	var newest int64
	for _, pkts := range bursts {
		for _, p := range pkts {
			if p.TimestampNs > newest {
				newest = p.TimestampNs
			}
		}
	}
	return newest
}

// localizeOne runs one burst through the pipeline with panic isolation: a
// numerical blow-up on one poisoned burst must cost that burst, not a
// worker (and with it, eventually, the whole pool). Bursts whose APs were
// quarantined while queued are re-filtered here, so the breaker's view is
// never more than one queue sojourn stale.
func (s *Service) localizeOne(loc *spotfi.Localizer, j burstJob) {
	// The worker owns the burst lifecycle end: whatever happens below, the
	// trace is completed and handed to its sinks.
	defer j.tr.Finish()
	defer func() {
		if r := recover(); r != nil {
			s.localizePanics.Inc()
			s.log.Error("localize panic recovered", "mac", j.mac, "trace", j.tr.ID(), "panic", fmt.Sprint(r))
		}
	}()
	excluded := 0
	for ap := range j.bursts {
		if !s.breakers.Allow(ap) {
			delete(j.bursts, ap)
			excluded++
		}
	}
	if excluded > 0 {
		j.tr.Root().SetInt("breaker_excluded", int64(excluded))
	}
	if len(j.bursts) < 2 {
		s.breakerDrops.Inc()
		j.tr.Root().SetStr("dropped", "breaker")
		return
	}
	capture := captureNs(j.bursts)
	p, reports, skipped, err := loc.LocalizeBurstsTraced(j.bursts, j.tr)
	for _, sk := range skipped {
		s.log.Warn("AP skipped", "mac", j.mac, "trace", j.tr.ID(), "ap", sk.APID, "err", sk.Err)
	}
	if err != nil {
		s.localizeErrors.Inc()
		s.log.Warn("localize failed", "mac", j.mac, "trace", j.tr.ID(), "err", err)
		return
	}
	emit := time.Now().UnixNano()
	if lat := time.Duration(emit - capture); capture > 0 && lat >= 0 && lat < fixLatencySane {
		s.fixLatency.Observe(lat.Seconds())
	}
	s.Feed.Publish(feed.Fix{
		MAC:        j.mac,
		X:          p.X,
		Y:          p.Y,
		Confidence: p.Confidence,
		Mode:       p.Mode,
		CaptureNs:  capture,
		EmitNs:     emit,
		APs:        len(reports),
	})
	// j.bursts is the post-breaker-filter composition at this point —
	// exactly what the pipeline consumed, which is what replay must feed.
	s.rec.RecordFix(j.mac, p.Mode, p.X, p.Y, p.Confidence, j.bursts)
	if floor := s.cfg.FlightConfidenceFloor; p.Confidence < floor {
		s.rec.Trigger(flight.TriggerLowConfidence,
			fmt.Sprintf("fix for %s scored %.3f < floor %.3f", j.mac, p.Confidence, floor))
	}
	s.log.Info("target localized", "mac", j.mac, "trace", j.tr.ID(),
		"x", p.X, "y", p.Y, "aps", len(reports), "confidence", p.Confidence, "mode", p.Mode)
}
