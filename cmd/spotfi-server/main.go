// Command spotfi-server runs the central SpotFi localization server: it
// accepts AP connections, assembles per-target CSI bursts, runs the SpotFi
// pipeline on each complete burst, and prints location estimates.
//
// AP positions are supplied as repeated -ap flags: "id,x,y,normalDeg".
//
// The serving graph — admission-controlled worker pool (-queue, -admit-*),
// degradation ladder (-modes), per-AP circuit breakers (-breaker-*),
// quality monitor (-quality-floor), fix feed (-fix-feed-*), SLO burn rates
// (-slo-*), flight recorder (-flight-*) and graceful drain
// (-drain-timeout) — is built by internal/service from these flags; this
// command only maps flags onto a service.Config, waits for SIGINT/SIGTERM
// and drains. With -debug-addr set, an HTTP listener serves the debug
// surface, with an index of every endpoint at /debug/. README.md ("The
// live system") describes each flag's behaviour; DESIGN.md §15–18 the
// models behind them.
//
// Usage:
//
//	spotfi-server -listen 127.0.0.1:7100 \
//	    -ap 0,0.4,0.4,45 -ap 1,15.6,0.4,135 -ap 2,8,9.7,-90 \
//	    -bounds 0,0,16,10 [-batch 10] [-minaps 3] \
//	    [-workers N] [-queue 64] [-idle-timeout 90s] [-burst-ttl 30s] \
//	    [-admit-target 150ms] [-admit-deadline 1s] [-admit-interval 2s] \
//	    [-admit-shed-floor 0.5] [-admit-log-every 5s] [-modes 3] \
//	    [-breaker-window 30s] [-breaker-failures 8] [-breaker-cooldown 15s] \
//	    [-breaker-probes 3] [-drain-timeout 5s] \
//	    [-trace-sample 100] [-trace-slow 5s] [-log-format text] \
//	    [-quality-floor 0.25] [-debug-addr 127.0.0.1:7101] \
//	    [-flight-dir /var/lib/spotfi/flight] [-flight-frames 256] \
//	    [-flight-cooldown 30s] [-flight-max-bundles 8] \
//	    [-flight-confidence-floor 0.05]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"spotfi"
	"spotfi/internal/cliutil"
	"spotfi/internal/service"
)

func main() {
	cfg := service.DefaultConfig()
	flag.StringVar(&cfg.Listen, "listen", cfg.Listen, "TCP address to listen on")
	boundsStr := flag.String("bounds", "0,0,16,10", "search bounds minX,minY,maxX,maxY (m)")
	flag.IntVar(&cfg.Collector.BatchSize, "batch", cfg.Collector.BatchSize, "packets per AP per localization burst")
	flag.IntVar(&cfg.Collector.MinAPs, "minaps", cfg.Collector.MinAPs, "minimum APs with a full batch before localizing")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "localization worker goroutines")
	flag.IntVar(&cfg.Queue.Capacity, "queue", cfg.Queue.Capacity, "burst queue capacity; at capacity the chattiest target's oldest burst is evicted")
	flag.DurationVar(&cfg.IdleTimeout, "idle-timeout", cfg.IdleTimeout, "reap AP connections silent for this long (0 disables)")
	flag.DurationVar(&cfg.Collector.BurstTTL, "burst-ttl", cfg.Collector.BurstTTL, "evict buffered packets of incomplete bursts older than this (0 disables)")
	flag.DurationVar(&cfg.Queue.Target, "admit-target", cfg.Queue.Target, "acceptable standing queue sojourn; CoDel shedding engages above it")
	flag.DurationVar(&cfg.Queue.Deadline, "admit-deadline", cfg.Queue.Deadline, "hard freshness budget: queued bursts older than this are shed")
	flag.DurationVar(&cfg.Queue.Interval, "admit-interval", cfg.Queue.Interval, "CoDel observation interval before shedding starts")
	flag.Float64Var(&cfg.AdmitShedFloor, "admit-shed-floor", cfg.AdmitShedFloor, "shed-rate fraction above which /readyz reports degraded")
	flag.DurationVar(&cfg.AdmitLogEvery, "admit-log-every", cfg.AdmitLogEvery, "summarize shed bursts in the log at most this often")
	flag.IntVar(&cfg.Modes, "modes", cfg.Modes, "degradation ladder depth: 1 full MUSIC only, 2 adds the ESPRIT fast path, 3 adds the coarse grid")
	flag.DurationVar(&cfg.Breaker.Window, "breaker-window", cfg.Breaker.Window, "failure window for tripping an AP's circuit breaker")
	flag.IntVar(&cfg.Breaker.Failures, "breaker-failures", cfg.Breaker.Failures, "failures within -breaker-window that trip an AP's breaker open")
	flag.DurationVar(&cfg.Breaker.Cooldown, "breaker-cooldown", cfg.Breaker.Cooldown, "quarantine before an open breaker probes the AP again (doubles per reopen)")
	flag.IntVar(&cfg.Breaker.Probes, "breaker-probes", cfg.Breaker.Probes, "healthy probation bursts that close a half-open breaker")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "shutdown budget for localizing already-queued bursts; the rest are shed")
	debugAddr := flag.String("debug-addr", "", "HTTP address for /metrics, /healthz, /debug/traces, and /debug/pprof (disabled if empty)")
	flag.IntVar(&cfg.Trace.SampleEvery, "trace-sample", cfg.Trace.SampleEvery, "trace 1 in N bursts (0 disables tracing)")
	flag.DurationVar(&cfg.Trace.SlowThreshold, "trace-slow", cfg.Trace.SlowThreshold, "always retain traces of bursts slower than this end-to-end")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Float64Var(&cfg.Quality.Floor, "quality-floor", cfg.Quality.Floor, "confidence score below which a fix counts as low-quality")
	flag.IntVar(&cfg.Feed.Buffer, "fix-feed-buffer", cfg.Feed.Buffer, "per-subscriber fix-feed buffer; a /debug/fixes client this far behind is dropped")
	flag.IntVar(&cfg.Feed.MaxSubscribers, "fix-feed-subs", cfg.Feed.MaxSubscribers, "max concurrent /debug/fixes subscribers")
	flag.DurationVar(&cfg.SLOLatencyBound, "slo-latency-bound", cfg.SLOLatencyBound, "packet→fix latency bound defining a good fix for the latency SLO")
	flag.Float64Var(&cfg.SLOLatencyTarget, "slo-latency-target", cfg.SLOLatencyTarget, "fraction of fixes that must meet -slo-latency-bound")
	flag.Float64Var(&cfg.SLOShedTarget, "slo-shed-target", cfg.SLOShedTarget, "fraction of bursts admission control must deliver (not shed)")
	flag.DurationVar(&cfg.SLO.FastWindow, "slo-fast-window", cfg.SLO.FastWindow, "fast burn-rate window")
	flag.DurationVar(&cfg.SLO.SlowWindow, "slo-slow-window", cfg.SLO.SlowWindow, "slow burn-rate window")
	flag.DurationVar(&cfg.SLO.Tick, "slo-tick", cfg.SLO.Tick, "SLO source sampling interval")
	flag.Float64Var(&cfg.SLO.BurnThreshold, "slo-burn-threshold", cfg.SLO.BurnThreshold, "burn rate both windows must exceed before an SLO counts as burning (degrades /readyz)")
	flag.StringVar(&cfg.Flight.Dir, "flight-dir", cfg.Flight.Dir, "arm the flight recorder and write capture bundles under this directory (disabled if empty)")
	flag.IntVar(&cfg.Flight.FramesPerAP, "flight-frames", cfg.Flight.FramesPerAP, "flight recorder: raw frames retained per AP")
	flag.DurationVar(&cfg.Flight.Cooldown, "flight-cooldown", cfg.Flight.Cooldown, "flight recorder: minimum spacing between automatic bundle dumps; extra triggers are coalesced")
	flag.IntVar(&cfg.Flight.MaxBundles, "flight-max-bundles", cfg.Flight.MaxBundles, "flight recorder: on-disk bundle cap; oldest bundles are pruned")
	flag.Float64Var(&cfg.FlightConfidenceFloor, "flight-confidence-floor", cfg.FlightConfidenceFloor, "flight recorder: dump a bundle when a fix's confidence falls below this (0 disables)")
	version := flag.Bool("version", false, "print build version and exit")
	var aps cliutil.APList
	flag.Var(&aps, "ap", "AP spec id,x,y,normalDeg (repeatable)")
	flag.Parse()

	if *version {
		fmt.Println("spotfi-server", cliutil.ReadBuild())
		return
	}
	logger, err := cliutil.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	cfg.APs = aps
	cfg.Logger = logger
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(2)
	}
	bounds, err := cliutil.ParseBounds(*boundsStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(2)
	}
	cfg.Pipeline = spotfi.DefaultConfig(bounds)
	cfg.Collector.MaxBuffered = 40 * cfg.Collector.BatchSize
	// Every flag's effective value (defaults included) goes into flight
	// bundles: a bundle says how the server was actually configured, not
	// just which flags were passed.
	cfg.Flight.Flags = make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) { cfg.Flight.Flags[f.Name] = f.Value.String() })

	svc, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(1)
	}
	addr, err := svc.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(1)
	}
	logger.Info("spotfi-server listening", "addr", addr.String(), "aps", len(aps), "workers", cfg.Workers, "modes", cfg.Modes)

	if *debugAddr != "" {
		//lint:allow gospawn debug HTTP listener lives for the whole process; no join needed
		go func() {
			logger.Info("debug endpoints up", "url", "http://"+*debugAddr+"/debug/")
			if err := http.ListenAndServe(*debugAddr, svc.Handler()); err != nil {
				logger.Warn("debug listener failed", "err", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down, draining queued bursts", "deadline", cfg.DrainTimeout)
	svc.Drain()
}
