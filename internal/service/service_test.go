package service

import (
	"io"
	"log/slog"
	"runtime"
	"testing"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/obs"
	"spotfi/internal/testbed"
)

// officeConfig is DefaultConfig over the office testbed, listening on an
// ephemeral port and logging nowhere.
func officeConfig(d *testbed.Deployment) Config {
	cfg := DefaultConfig()
	cfg.Pipeline = spotfi.DefaultConfig(d.Bounds)
	for _, ap := range d.APs {
		cfg.APs = append(cfg.APs, spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle})
	}
	cfg.Listen = "127.0.0.1:0"
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return cfg
}

// TestValidate breaks each spotfi-server flag rule in turn and checks the
// exact message the server prints for it.
func TestValidate(t *testing.T) {
	base := officeConfig(testbed.Office(1))
	if err := base.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	// The flight rules apply only to an armed recorder.
	disarmed := base
	disarmed.Flight.FramesPerAP = 0
	if err := disarmed.Validate(); err != nil {
		t.Fatalf("disarmed flight recorder's fields validated: %v", err)
	}
	cases := []struct {
		name   string
		breaks func(*Config)
		want   string
	}{
		{"aps", func(c *Config) { c.APs = c.APs[:1] }, "need at least two -ap flags"},
		{"workers", func(c *Config) { c.Workers = 0 }, "-workers and -queue must be ≥ 1"},
		{"idle-timeout", func(c *Config) { c.IdleTimeout = -time.Second }, "-idle-timeout and -burst-ttl must be ≥ 0"},
		{"trace-sample", func(c *Config) { c.Trace.SampleEvery = -1 }, "-trace-sample must be ≥ 0"},
		{"admit-deadline", func(c *Config) { c.Queue.Deadline = c.Queue.Target / 2 },
			"-admit-target/-admit-interval must be > 0 and -admit-deadline ≥ -admit-target"},
		{"admit-shed-floor", func(c *Config) { c.AdmitShedFloor = 1.5 }, "-admit-shed-floor must be in (0,1]"},
		{"modes", func(c *Config) { c.Modes = 4 }, "-modes must be 1, 2, or 3"},
		{"breaker-probes", func(c *Config) { c.Breaker.Probes = 0 }, "-breaker-* values must be positive"},
		{"drain-timeout", func(c *Config) { c.DrainTimeout = -time.Second }, "-drain-timeout must be ≥ 0"},
		{"quality-floor", func(c *Config) { c.Quality.Floor = -0.1 }, "-quality-floor must be in [0,1]"},
		{"fix-feed-subs", func(c *Config) { c.Feed.MaxSubscribers = 0 }, "-fix-feed-buffer and -fix-feed-subs must be ≥ 1"},
		{"slo-slow-window", func(c *Config) { c.SLO.SlowWindow = c.SLO.FastWindow / 2 },
			"-slo-latency-bound/-slo-*-window/-slo-tick/-slo-burn-threshold must be positive, slow ≥ fast"},
		{"slo-shed-target", func(c *Config) { c.SLOShedTarget = 1 }, "-slo-latency-target and -slo-shed-target must be in (0,1)"},
		{"flight-frames", func(c *Config) { c.Flight.Dir = t.TempDir(); c.Flight.FramesPerAP = 0 },
			"-flight-frames/-flight-max-bundles must be ≥ 1, -flight-cooldown > 0, -flight-confidence-floor in [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.APs = append([]spotfi.AP(nil), base.APs...)
			tc.breaks(&cfg)
			err := cfg.Validate()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Validate() = %v, want %q", err, tc.want)
			}
			if _, err := New(cfg); err == nil {
				t.Fatal("New accepted a config Validate rejects")
			}
		})
	}
}

// TestDrainDeadline pushes bursts faster than one worker localizes them
// and drains with no time to spare: the drain-deadline branch must shed
// what is still queued, every assembled burst must end delivered or shed,
// Drain must return, and every goroutine the service started must exit.
func TestDrainDeadline(t *testing.T) {
	d := testbed.Office(1)
	cfg := officeConfig(d)
	cfg.Workers = 1
	cfg.DrainTimeout = 0
	cfg.Collector.BatchSize = 4
	cfg.Collector.MinAPs = len(d.APs)

	before := runtime.NumGoroutine()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	const bursts = 8
	for tgt := 0; tgt < bursts; tgt++ {
		for a := range d.APs {
			pkts, err := d.Burst(a, tgt, cfg.Collector.BatchSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				if err := svc.collector.Add(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if emitted, _ := svc.collector.Stats(); emitted != bursts {
		t.Fatalf("collector assembled %d bursts, want %d", emitted, bursts)
	}

	done := make(chan Drained, 1)
	go func() { done <- svc.Drain() }()
	var drained Drained
	select {
	case drained = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Drain did not return")
	}

	delivered, shed := svc.queue.DeliveredTotal(), svc.queue.ShedTotal()
	if delivered+shed != bursts {
		t.Fatalf("%d delivered + %d shed ≠ %d assembled bursts", delivered, shed, bursts)
	}
	if drained.Shed == 0 {
		t.Fatal("a zero drain timeout shed nothing: the deadline branch never ran")
	}
	shedDrain := svc.Registry.Counter("spotfi_admit_shed_total", "", obs.Labels{"reason": string(admit.ShedDrain)})
	if got := shedDrain.Value(); got != uint64(drained.Shed) {
		t.Fatalf("spotfi_admit_shed_total{reason=drain} = %d, Drain reported %d", got, drained.Shed)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after drain, %d before the service", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
