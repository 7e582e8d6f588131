// Package service builds SpotFi's serving graph — wire listener,
// collector, admission queue, degradation ladder, per-AP breakers,
// quality monitor, fix feed, SLO tracker, flight recorder and the
// localization pool — from one Config, and runs its start and drain
// sequences. spotfi-server, the overload and load-generator soaks and
// examples/livesystem all build their serving graph here.
package service

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/cliutil"
	"spotfi/internal/csi"
	"spotfi/internal/debugmux"
	"spotfi/internal/feed"
	"spotfi/internal/flight"
	"spotfi/internal/obs"
	"spotfi/internal/obs/quality"
	"spotfi/internal/obs/slo"
	"spotfi/internal/obs/trace"
	"spotfi/internal/server"
)

// Service is one built serving graph. New wires it, Start runs it, Drain
// tears it down; Handler serves its debug surface.
type Service struct {
	Registry *obs.Registry // every series the graph exports on /metrics
	Feed     *feed.Feed    // every fix, as /debug/fixes streams it

	cfg       Config
	log       *slog.Logger
	tracer    *trace.Tracer
	rec       *flight.Recorder
	breakers  *admit.BreakerSet
	monitor   *quality.Monitor
	locs      []*spotfi.Localizer
	shedlog   *admit.ShedLogger
	queue     *admit.Queue
	ladder    *admit.Ladder
	slos      *slo.Tracker
	collector *server.Collector
	srv       *server.Server

	localizeErrors, localizePanics, breakerDrops *obs.Counter
	fixLatency                                   *obs.Histogram

	pool        sync.WaitGroup
	stopSLO     func()
	stopSweeper func()
}

// Drained reports what Drain discarded.
type Drained struct {
	PartialPackets int    // buffered in bursts that never completed
	Shed           int    // queued bursts the drain deadline shed
	Bundle         string // the drain flight bundle's name ("" when disarmed)
}

// New validates cfg and builds the serving graph without starting it.
func New(cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, log: cfg.Logger, Registry: obs.NewRegistry()}
	if s.log == nil {
		s.log = slog.Default()
	}
	reg, logger := s.Registry, s.log
	cliutil.RegisterBuildInfo(reg)
	obs.RegisterRuntimeMetrics(reg)
	spotfi.RegisterSteeringCacheMetrics(reg)

	tcfg := cfg.Trace
	tcfg.Registry, tcfg.Logger = reg, logger
	s.tracer = trace.New(tcfg)

	// Flight recorder (nil when disarmed: every method is a nil-safe
	// no-op, so the wiring below costs nothing without a Dir). The
	// embedded ServerConfig is filled from this Config, so a bundle's
	// manifest describes exactly the ladder that produced its fixes —
	// including the radian AP normals, so replayed geometry is
	// bit-identical.
	if cfg.Flight.Dir != "" {
		fcfg := cfg.Flight
		fcfg.Server = serverConfig(cfg)
		fcfg.Registry, fcfg.MetricsSnapshot, fcfg.Logger = reg, reg.Snapshot, logger
		fcfg.Traces = func() (recent, slow []trace.TraceData) {
			return s.tracer.Recent(), s.tracer.Slow()
		}
		rec, err := flight.New(fcfg)
		if err != nil {
			return nil, err
		}
		s.rec = rec
		logger.Info("flight recorder armed", "dir", fcfg.Dir,
			"frames_per_ap", fcfg.FramesPerAP, "cooldown", fcfg.Cooldown, "max_bundles", fcfg.MaxBundles)
	}
	rec := s.rec

	// Per-AP circuit breakers, fed from three directions: ingest events
	// (reconnect churn, non-finite CSI) via the server's event sink, drift
	// breaches and per-burst AP scores via the quality monitor's hooks.
	// Every transition lands in the flight journal; opens trigger a dump.
	bcfg := cfg.Breaker
	bcfg.OnTransition = func(ap int, from, to admit.State, kind admit.FailureKind) {
		logger.Warn("AP breaker state change", "ap", ap, "from", from.String(), "to", to.String(), "kind", string(kind))
		rec.Note(flight.EventBreaker, ap, "", from.String()+"→"+to.String()+" ("+string(kind)+")", 0)
		if to == admit.StateOpen {
			rec.Trigger(flight.TriggerBreakerOpen,
				fmt.Sprintf("AP %d breaker opened (%s)", ap, string(kind)))
		}
	}
	s.breakers = admit.NewBreakerSet(reg, bcfg)
	qcfg := cfg.Quality
	qcfg.OnBurst = func(sc quality.Score) {
		for _, ap := range sc.PerAP {
			s.breakers.ObserveScore(ap.APID, ap.Score)
		}
	}
	qcfg.OnDriftBreach = func(apID, breached int) {
		rec.Note(flight.EventDrift, apID, "", "drift breach", float64(breached))
		// A single breached observable can be an outlier burst; two or
		// more breaching together is a real distribution shift.
		if breached >= 2 {
			s.breakers.Failure(apID, admit.FailDrift)
		}
	}
	s.monitor = quality.NewMonitor(reg, qcfg)

	pcfg := cfg.Pipeline
	pcfg.Metrics = spotfi.NewPipelineMetrics(reg)
	pcfg.QualityMonitor = s.monitor
	locs, err := spotfi.BuildLadder(pcfg, cfg.APs, cfg.Modes)
	if err != nil {
		return nil, err
	}
	s.locs = locs

	s.registerLocalizeMetrics(reg)
	s.shedlog = admit.NewShedLogger(logger, cfg.AdmitLogEvery, nil)

	// Fix feed: every successful localization is published to /debug/fixes
	// subscribers (bounded fanout; slow clients are dropped, not waited on).
	fdcfg := cfg.Feed
	fdcfg.Metrics = feed.NewMetrics(reg)
	s.Feed = feed.New(fdcfg)

	// Admission-controlled burst queue: burst handlers run on connection
	// goroutines, so they must never block; workers pop through the
	// CoDel/deadline policy so they never waste time on stale bursts.
	acfg := cfg.Queue
	acfg.Metrics = admit.NewQueueMetrics(reg)
	acfg.OnShed = func(it admit.Item, reason admit.ShedReason) {
		j := it.Payload.(burstJob)
		j.tr.Root().SetStr("shed", string(reason))
		j.tr.Finish()
		s.shedlog.Note(reason)
		rec.Note(flight.EventShed, -1, j.mac, string(reason), 0)
	}
	s.queue = admit.NewQueue(acfg)

	// Degradation ladder: sojourn thresholds derived from the admission
	// target, bounded by Modes.
	lcfg := admit.DefaultLadderConfig(cfg.Queue.Target)
	lcfg.MaxMode = admit.Mode(cfg.Modes - 1)
	lcfg.OnChange = func(from, to admit.Mode) {
		logger.Warn("degradation mode change", "from", from.String(), "to", to.String())
		rec.Note(flight.EventMode, -1, "", from.String()+"→"+to.String(), float64(to))
	}
	s.ladder = admit.NewLadder(reg, lcfg)

	// SLO burn-rate tracking over the latency histogram and the admission
	// queue's delivered/shed counters, exported as spotfi_slo_* and folded
	// into /readyz: a sustained burn on both windows degrades readiness.
	scfg := cfg.SLO
	scfg.OnBurn = func(objective string, burning bool) {
		v := 0.0
		if burning {
			v = 1
		}
		rec.Note(flight.EventSLO, -1, "", objective, v)
		if burning {
			rec.Trigger(flight.TriggerSLOBurn, "SLO "+objective+" burning on both windows")
		}
	}
	s.slos = slo.New(scfg)
	s.slos.Add(slo.LatencyObjective("fix_latency",
		"packet→fix latency within the bound", s.fixLatency,
		cfg.SLOLatencyBound.Seconds(), cfg.SLOLatencyTarget))
	s.slos.Add(slo.RatioObjective("admit_shed",
		"bursts delivered (not shed) by admission control", cfg.SLOShedTarget,
		func() (uint64, uint64) {
			delivered := s.queue.DeliveredTotal()
			return delivered, delivered + s.queue.ShedTotal()
		}))
	s.slos.Register(reg)

	metrics := server.NewMetrics(reg)
	s.collector, err = server.NewCollector(cfg.Collector, func(mac string, bursts map[int][]*csi.Packet, tr *trace.Trace) {
		s.queue.Push(mac, burstJob{mac: mac, bursts: bursts, tr: tr})
	})
	if err != nil {
		return nil, err
	}
	s.collector.SetMetrics(metrics)
	s.collector.SetTracer(s.tracer)
	// Quarantined APs are excluded from burst assembly at the source.
	s.collector.SetQuarantine(s.breakers.Allow)
	if rec != nil {
		// The tap is only installed when armed, so a disarmed server pays
		// literally nothing on the per-packet path (not even a call).
		s.collector.SetTap(rec.TapPacket)
		s.collector.SetPanicHook(func(mac, reason string) {
			rec.Note(flight.EventQuarantine, -1, mac, reason, 0)
			rec.Trigger(flight.TriggerPanic, "burst handler panicked for "+mac)
		})
	}

	s.srv, err = server.New(s.collector, logger)
	if err != nil {
		return nil, err
	}
	s.srv.SetMetrics(metrics)
	s.srv.SetTimeouts(server.DefaultHandshakeTimeout, cfg.IdleTimeout)
	s.srv.SetEventSink(s.breakers)
	return s, nil
}

// serverConfig is the replay-relevant slice of cfg that every flight
// bundle's manifest records.
func serverConfig(cfg Config) flight.ServerConfig {
	specs := make([]flight.APSpec, len(cfg.APs))
	for i, ap := range cfg.APs {
		specs[i] = flight.APSpec{ID: ap.ID, X: ap.Pos.X, Y: ap.Pos.Y, NormalRad: ap.NormalAngle}
	}
	b := cfg.Pipeline.Locate.Bounds
	return flight.ServerConfig{
		Bounds: [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY},
		APs:    specs,
		Batch:  cfg.Collector.BatchSize,
		MinAPs: cfg.Collector.MinAPs,
		Modes:  cfg.Modes,
		Seed:   cfg.Pipeline.Seed,
	}
}

// Start launches the SLO ticker, the worker pool and the TTL sweeper,
// then binds the wire listener on Config.Listen and returns its address.
// Call it once; call Drain afterwards even when Start fails.
func (s *Service) Start() (net.Addr, error) {
	s.stopSLO = s.slos.Start()
	for i := 0; i < s.cfg.Workers; i++ {
		s.pool.Add(1)
		//lint:allow gospawn this loop is the bounded localization pool itself (WaitGroup-joined, Workers sized)
		go func() {
			defer s.pool.Done()
			for {
				it, sojourn, ok := s.queue.Pop()
				if !ok {
					return
				}
				mode := s.ladder.Observe(sojourn)
				s.localizeOne(s.locs[mode], it.Payload.(burstJob))
			}
		}()
	}
	if ttl := s.cfg.Collector.BurstTTL; ttl > 0 {
		// Sweep a few times per TTL so eviction lag stays a fraction of
		// the staleness bound.
		s.stopSweeper = s.collector.StartSweeper(ttl / 4)
	}
	return s.srv.Listen(s.cfg.Listen)
}

// Drain tears the graph down outermost-in: stop accepting packets, stop
// burst assembly (waiting out any in-flight handler), then let the
// workers localize what is already queued — against DrainTimeout, past
// which the remainder is shed and counted rather than holding the process
// hostage. The flight recorder flushes its drain bundle last, after the
// workers have recorded their final fixes, and the fix feed closes.
func (s *Service) Drain() Drained {
	if err := s.srv.Close(); err != nil {
		s.log.Warn("close failed", "err", err)
	}
	d := Drained{PartialPackets: s.collector.Shutdown()}
	s.queue.Close()
	done := make(chan struct{})
	//lint:allow gospawn shutdown-only helper; joined via done before return on both paths
	go func() {
		s.pool.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		d.Shed = s.queue.Abort()
		s.log.Warn("drain deadline exceeded, shedding queued bursts", "shed", d.Shed)
		<-done
	}
	for _, stop := range []func(){s.stopSweeper, s.stopSLO} {
		if stop != nil {
			stop()
		}
	}
	// The drain bundle is the black box's "landing" snapshot, covering
	// the shutdown itself.
	if s.rec != nil {
		name, err := s.rec.DumpNow(flight.TriggerDrain, "graceful drain")
		if err != nil {
			s.log.Warn("drain flight bundle failed", "err", err)
		} else {
			s.log.Info("drain flight bundle flushed", "bundle", name)
		}
		d.Bundle = name
		s.rec.Close()
	}
	s.Feed.Close()
	s.shedlog.Flush()
	s.log.Info("drained", "discarded_partial_packets", d.PartialPackets)
	return d
}

// Handler serves the debug surface: the /debug/ index, /metrics, /healthz,
// /readyz, traces, quality, SLOs, the fix feed, the flight recorder and
// pprof. Every endpoint carries a one-line description on the index.
func (s *Service) Handler() http.Handler {
	mux := debugmux.New()
	mux.Handle("/metrics", "Prometheus text metrics, including Go runtime telemetry", s.Registry.Handler())
	// /healthz is pure liveness (the process is up); /readyz is readiness
	// (at least one AP delivered a packet within the burst TTL and
	// admission control is not hard-shedding, so the server can actually
	// produce fixes).
	mux.HandleFunc("/healthz", "liveness: always ok while the process is up", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/readyz", "readiness: 503 while no fresh AP traffic, hard-shedding, or an SLO burns",
		s.srv.Tracker().ReadinessHandler(s.cfg.Collector.BurstTTL, func() (string, bool) {
			if rate := s.queue.ShedRate(); rate > s.cfg.AdmitShedFloor {
				return fmt.Sprintf("admission control shedding %.0f%% of bursts", 100*rate), false
			}
			return "", true
		}, s.slos.ReadyCheck()))
	mux.Handle("/debug/traces", "recent and slow burst traces (JSON, ?view=html waterfall)", s.tracer.Handler())
	mux.Handle("/debug/quality", "per-burst confidence scores and per-AP drift scoreboard", s.monitor.Handler())
	mux.Handle("/debug/slo", "multi-window SLO burn rates", s.slos.Handler())
	mux.Handle("/debug/fixes", "live JSON-lines stream of every fix", s.Feed.Handler())
	mux.Handle("/debug/flight", "flight recorder: status, bundle index, POST dump to freeze a bundle", s.rec.Handler())
	mux.Handle("/debug/flight/", "", s.rec.Handler())
	mux.HandleFunc("/debug/pprof/", "net/http/pprof profiles", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", "", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", "", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", "", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", "", pprof.Trace)
	return mux
}
