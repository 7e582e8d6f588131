package service

import (
	"errors"
	"log/slog"
	"runtime"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/feed"
	"spotfi/internal/flight"
	"spotfi/internal/obs/quality"
	"spotfi/internal/obs/slo"
	"spotfi/internal/obs/trace"
	"spotfi/internal/server"
)

// Config is everything the serving graph is built from: the component
// configs it wires together plus the spotfi-server flags that belong to
// no component. Each field names the flag it carries. The hook, metrics
// and logger fields of the component configs (OnShed, OnTransition,
// OnBurst, OnDriftBreach, OnBurn, Metrics, QualityMonitor, Registry,
// Logger, flight.Config.Server, …) are the service's own wiring and are
// replaced by New.
type Config struct {
	Pipeline     spotfi.Config // every ladder rung's localizer config (-bounds)
	APs          []spotfi.AP   // -ap
	Modes        int           // degradation-ladder depth, 1–3 (-modes)
	Workers      int           // localization pool size (-workers)
	Listen       string        // wire address Start binds (-listen)
	IdleTimeout  time.Duration // reap silent AP connections; 0 disables (-idle-timeout)
	DrainTimeout time.Duration // Drain's budget for queued bursts (-drain-timeout)

	// Collector: BatchSize (-batch), MinAPs (-minaps), BurstTTL
	// (-burst-ttl), MaxBuffered.
	Collector server.CollectorConfig
	// Queue: Capacity (-queue), Target (-admit-target), Deadline
	// (-admit-deadline), Interval (-admit-interval). The ladder's
	// thresholds derive from Target.
	Queue          admit.QueueConfig
	AdmitShedFloor float64       // shed rate that degrades /readyz (-admit-shed-floor)
	AdmitLogEvery  time.Duration // shed summary log interval (-admit-log-every)
	// Breaker: Window (-breaker-window), Failures (-breaker-failures),
	// Cooldown (-breaker-cooldown), Probes (-breaker-probes).
	Breaker admit.BreakerConfig
	Quality quality.Config // Floor (-quality-floor)
	Trace   trace.Config   // SampleEvery (-trace-sample), SlowThreshold (-trace-slow)
	Feed    feed.Config    // Buffer (-fix-feed-buffer), MaxSubscribers (-fix-feed-subs)
	// SLO: FastWindow (-slo-fast-window), SlowWindow (-slo-slow-window),
	// Tick (-slo-tick), BurnThreshold (-slo-burn-threshold).
	SLO              slo.Config
	SLOLatencyBound  time.Duration // a good fix's packet→fix latency (-slo-latency-bound)
	SLOLatencyTarget float64       // -slo-latency-target
	SLOShedTarget    float64       // -slo-shed-target
	// Flight arms the recorder when Dir is set: Dir (-flight-dir),
	// FramesPerAP (-flight-frames), Cooldown (-flight-cooldown),
	// MaxBundles (-flight-max-bundles), Flags (the effective flag set).
	Flight                flight.Config
	FlightConfidenceFloor float64      // dump below this fix confidence; 0 disables (-flight-confidence-floor)
	Logger                *slog.Logger // -log-format; nil means slog.Default
}

// DefaultConfig returns spotfi-server's flag defaults. The caller
// supplies APs and Pipeline (the -ap and -bounds flags).
func DefaultConfig() Config {
	return Config{
		Modes:                 3,
		Workers:               runtime.GOMAXPROCS(0),
		Listen:                "127.0.0.1:7100",
		IdleTimeout:           server.DefaultIdleTimeout,
		DrainTimeout:          5 * time.Second,
		Collector:             server.CollectorConfig{BatchSize: 10, MinAPs: 3, MaxBuffered: 40 * 10, BurstTTL: 30 * time.Second},
		Queue:                 admit.QueueConfig{Capacity: 64, Target: 150 * time.Millisecond, Deadline: time.Second, Interval: 2 * time.Second},
		AdmitShedFloor:        0.5,
		AdmitLogEvery:         5 * time.Second,
		Breaker:               admit.BreakerConfig{Window: 30 * time.Second, Failures: 8, Cooldown: 15 * time.Second, Probes: 3},
		Quality:               quality.Config{Floor: quality.DefaultFloor},
		Trace:                 trace.Config{SampleEvery: 100, SlowThreshold: 5 * time.Second},
		Feed:                  feed.Config{Buffer: 64, MaxSubscribers: 16},
		SLO:                   slo.Config{FastWindow: 5 * time.Minute, SlowWindow: time.Hour, Tick: 10 * time.Second, BurnThreshold: 6},
		SLOLatencyBound:       time.Second,
		SLOLatencyTarget:      0.99,
		SLOShedTarget:         0.95,
		Flight:                flight.Config{FramesPerAP: 256, Cooldown: 30 * time.Second, MaxBundles: 8},
		FlightConfidenceFloor: 0.05,
	}
}

// Validate checks c against spotfi-server's flag rules, in flag order,
// and returns the first broken one. The message names the flags, so the
// server prints it as is.
func (c Config) Validate() error {
	q, b, s, f := c.Queue, c.Breaker, c.SLO, c.Flight
	switch {
	case len(c.APs) < 2:
		return errors.New("need at least two -ap flags")
	case c.Collector.MinAPs < 2 || c.Collector.MinAPs > len(c.APs):
		return errors.New("-minaps must be between 2 and the number of -ap flags")
	case c.Workers < 1 || q.Capacity < 1:
		return errors.New("-workers and -queue must be ≥ 1")
	case c.IdleTimeout < 0 || c.Collector.BurstTTL < 0:
		return errors.New("-idle-timeout and -burst-ttl must be ≥ 0")
	case c.Trace.SampleEvery < 0:
		return errors.New("-trace-sample must be ≥ 0")
	case q.Target <= 0 || q.Interval <= 0 || q.Deadline < q.Target:
		return errors.New("-admit-target/-admit-interval must be > 0 and -admit-deadline ≥ -admit-target")
	case c.AdmitShedFloor <= 0 || c.AdmitShedFloor > 1:
		return errors.New("-admit-shed-floor must be in (0,1]")
	case c.Modes < 1 || c.Modes > 3:
		return errors.New("-modes must be 1, 2, or 3")
	case b.Window <= 0 || b.Cooldown <= 0 || b.Failures < 1 || b.Probes < 1:
		return errors.New("-breaker-* values must be positive")
	case c.DrainTimeout < 0:
		return errors.New("-drain-timeout must be ≥ 0")
	case c.Quality.Floor < 0 || c.Quality.Floor > 1:
		return errors.New("-quality-floor must be in [0,1]")
	case c.Feed.Buffer < 1 || c.Feed.MaxSubscribers < 1:
		return errors.New("-fix-feed-buffer and -fix-feed-subs must be ≥ 1")
	case c.SLOLatencyBound <= 0 || s.FastWindow <= 0 || s.SlowWindow < s.FastWindow || s.Tick <= 0 || s.BurnThreshold <= 0:
		return errors.New("-slo-latency-bound/-slo-*-window/-slo-tick/-slo-burn-threshold must be positive, slow ≥ fast")
	case c.SLOLatencyTarget <= 0 || c.SLOLatencyTarget >= 1 || c.SLOShedTarget <= 0 || c.SLOShedTarget >= 1:
		return errors.New("-slo-latency-target and -slo-shed-target must be in (0,1)")
	case f.Dir != "" && (f.FramesPerAP < 1 || f.MaxBundles < 1 || f.Cooldown <= 0 ||
		c.FlightConfidenceFloor < 0 || c.FlightConfidenceFloor > 1):
		return errors.New("-flight-frames/-flight-max-bundles must be ≥ 1, -flight-cooldown > 0, -flight-confidence-floor in [0,1]")
	}
	return nil
}
