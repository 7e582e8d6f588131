package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/csi"
	"spotfi/internal/feed"
	"spotfi/internal/loadgen"
	"spotfi/internal/obs"
	"spotfi/internal/obs/quality"
	"spotfi/internal/obs/trace"
	"spotfi/internal/server"
	"spotfi/internal/wire"
)

// serve-surge offered load, in bursts per second. One offered burst is
// one target's 10 packets from each of its 4 APs; with spotfi-server's
// -minaps 3 the collector assembles about 4/3 fixes' worth of bursts per
// offered burst. surgeRate is about three times the serving capacity of
// the parent commit on 2 vCPUs, so a 2× speed-up still leaves the server
// overloaded; the lead-in runs below capacity so the ladder and CoDel
// start from a calm queue.
const (
	leadInRate    = 25.0
	leadIn        = 2 * time.Second
	surgeRate     = 160.0
	surgeTargets  = 96
	drainDeadline = 5 * time.Second
	// breakerFailures is spotfi-loadgen -print-server-flags' relaxation of
	// -breaker-failures. At the server default of 8, hard-multipath
	// positions trip three or four of the six APs' breakers within seconds
	// and burst assembly stalls (ROADMAP item 4), so the surge would
	// measure that defect instead of the serving path.
	breakerFailures = 1000000
)

// surgeInputs are the serving workload's pre-built inputs and localizers.
type surgeInputs struct {
	scene *loadgen.Scene
	enc   *loadgen.Encoder
	aps   []spotfi.AP
	cfg   spotfi.Config
	locs  []*spotfi.Localizer
}

// buildSurge synthesizes the loadgen scene, pre-encodes every frame the
// generator sends and builds the three-rung serving ladder.
func buildSurge(seed int64, cfg spotfi.Config) (*surgeInputs, error) {
	scene, err := loadgen.NewScene(loadgen.SceneConfig{Seed: seed, Targets: surgeTargets, Positions: surgeTargets})
	if err != nil {
		return nil, err
	}
	enc, err := loadgen.NewEncoder(scene)
	if err != nil {
		return nil, err
	}
	aps := make([]spotfi.AP, len(scene.APs))
	for i, ap := range scene.APs {
		aps[i] = spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	locs, err := spotfi.BuildLadder(cfg, aps, 3)
	if err != nil {
		return nil, err
	}
	return &surgeInputs{scene: scene, enc: enc, aps: aps, cfg: cfg, locs: locs}, nil
}

// hash digests every frame payload the generator can send and the ground
// truth fixes are scored against.
func (in *surgeInputs) hash() string {
	h := newHash()
	for p, pos := range in.scene.Positions {
		putFloat(h, pos.X)
		putFloat(h, pos.Y)
		for _, a := range in.scene.APsForPos(p) {
			for _, payload := range in.enc.Payloads(a, p) {
				h.Write(payload)
			}
		}
	}
	return sumHex(h)
}

// burstJob is one assembled burst on its way through admission.
type burstJob struct {
	mac     string
	bursts  map[int][]*csi.Packet
	tr      *trace.Trace
	capture int64 // due time of the burst's newest packet, unix ns
	offered int   // offered burst whose packet completed this one
}

// surgeFix is one published fix, kept for scoring and checks.
type surgeFix struct {
	capture, emit int64
	offered       int
	mode          admit.Mode
	loc           spotfi.Location
	truthErr      float64
	// kept for re-derivation when the fix was traced
	reports []*spotfi.APReport
	bursts  map[int][]*csi.Packet
	td      *trace.TraceData
}

// graph is the serving pipeline as cmd/spotfi-server wires it with its
// default flag values, minus the TCP listener: the generator hands
// decoded frames straight to the collector.
type graph struct {
	in          *surgeInputs
	pm          *spotfi.PipelineMetrics
	tracer      *trace.Tracer
	breakers    *admit.BreakerSet
	fixes       *feed.Feed
	feedMetrics *feed.Metrics
	adq         *admit.Queue
	ladder      *admit.Ladder
	collector   *server.Collector
	smetrics    *server.Metrics
	rec         *recorder

	workers sync.WaitGroup

	// Counters the benchmark keeps at the layer boundaries it calls.
	pushed, delivered, published   atomic.Int64
	breakerDropped, localizeFailed atomic.Int64
	panics, emittedPackets         atomic.Int64
	breakerOpens, modeChanges      atomic.Int64
	depthMax                       atomic.Int64

	mu        sync.Mutex
	shed      map[admit.ShedReason][]int64 // capture times of shed bursts
	dropped   []int64                      // capture times of bursts the breakers dropped after admission
	failed    []int64                      // capture times of bursts that failed to localize
	out       []surgeFix
	sojournMs []float64
	modes     [3]int
	publishUs []float64
	traces    int

	// offering is the offered burst the generator is delivering. The
	// burst handler runs on the generator goroutine, inside
	// Collector.Add, so it reads this without a lock.
	offering int
}

// keptTraces bounds how many traced fixes keep their inputs for the
// re-derivation checks after the run.
const keptTraces = 120

// newGraph builds the serving graph around a quality monitor whose hooks
// feed the breakers; the localizers are built on that monitor afterwards.
func newGraph(pm *spotfi.PipelineMetrics, reg *obs.Registry, traced bool, rec *recorder) (*graph, *quality.Monitor) {
	g := &graph{pm: pm, rec: rec, shed: make(map[admit.ShedReason][]int64)}
	sample := 100 // spotfi-server -trace-sample default
	if traced {
		sample = 1
	}
	g.tracer = trace.New(trace.Config{SampleEvery: sample, SlowThreshold: 5 * time.Second, Registry: reg})
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	g.breakers = admit.NewBreakerSet(reg, admit.BreakerConfig{
		Window: 30 * time.Second, Failures: breakerFailures, Cooldown: 15 * time.Second, Probes: 3,
		OnTransition: func(ap int, from, to admit.State, kind admit.FailureKind) {
			if to == admit.StateOpen {
				g.breakerOpens.Add(1)
			}
		},
	})
	shedlog := admit.NewShedLogger(logger, 5*time.Second, nil)
	g.feedMetrics = feed.NewMetrics(reg)
	g.fixes = feed.New(feed.Config{Buffer: 64, MaxSubscribers: 16, Metrics: g.feedMetrics})
	g.adq = admit.NewQueue(admit.QueueConfig{
		Capacity: 64, Target: 150 * time.Millisecond, Deadline: time.Second, Interval: 2 * time.Second,
		Metrics: admit.NewQueueMetrics(reg),
		OnShed: func(it admit.Item, reason admit.ShedReason) {
			j := it.Payload.(burstJob)
			j.tr.Root().SetStr("shed", string(reason))
			j.tr.Finish()
			shedlog.Note(reason)
			g.mu.Lock()
			g.shed[reason] = append(g.shed[reason], j.capture)
			g.mu.Unlock()
		},
	})
	lcfg := admit.DefaultLadderConfig(150 * time.Millisecond)
	lcfg.MaxMode = admit.ModeCoarse
	lcfg.OnChange = func(from, to admit.Mode) { g.modeChanges.Add(1) }
	g.ladder = admit.NewLadder(reg, lcfg)
	g.smetrics = server.NewMetrics(reg)
	monitor := quality.NewMonitor(reg, quality.Config{
		Floor: quality.DefaultFloor,
		OnBurst: func(sc quality.Score) {
			for _, ap := range sc.PerAP {
				g.breakers.ObserveScore(ap.APID, ap.Score)
			}
		},
		OnDriftBreach: func(apID, breached int) {
			if breached >= 2 {
				g.breakers.Failure(apID, admit.FailDrift)
			}
		},
	})
	return g, monitor
}

// start wires the collector and starts the worker pool and TTL sweeper.
func (g *graph) start() (stop func(), err error) {
	g.collector, err = server.NewCollector(server.CollectorConfig{
		BatchSize: 10, MinAPs: 3, MaxBuffered: 400, BurstTTL: 30 * time.Second,
	}, func(mac string, bursts map[int][]*csi.Packet, tr *trace.Trace) {
		var packets int
		for _, b := range bursts {
			packets += len(b)
		}
		g.emittedPackets.Add(int64(packets))
		g.pushed.Add(1)
		g.adq.Push(mac, burstJob{mac: mac, bursts: bursts, tr: tr, capture: captureNs(bursts), offered: g.offering})
		if d := int64(g.adq.Len()); d > g.depthMax.Load() {
			g.depthMax.Store(d)
		}
	})
	if err != nil {
		return nil, err
	}
	g.collector.SetMetrics(g.smetrics)
	g.collector.SetTracer(g.tracer)
	g.collector.SetQuarantine(g.breakers.Allow)
	stopSweeper := g.collector.StartSweeper(30 * time.Second / 4)
	for i := 0; i < 2; i++ { // spotfi-server -workers default: GOMAXPROCS
		g.workers.Add(1)
		go func() {
			defer g.workers.Done()
			for {
				it, sojourn, ok := g.adq.Pop()
				if !ok {
					return
				}
				mode := g.ladder.Observe(sojourn)
				g.delivered.Add(1)
				g.mu.Lock()
				g.sojournMs = append(g.sojournMs, float64(sojourn)/1e6)
				g.modes[mode]++
				g.mu.Unlock()
				g.localize(it.Payload.(burstJob), mode, it.EnqueuedAt)
			}
		}()
	}
	return stopSweeper, nil
}

// localize is spotfi-server's localizeOne: re-check breakers, run the
// rung, publish the fix.
func (g *graph) localize(j burstJob, mode admit.Mode, enqueued time.Time) {
	finished := false
	defer func() {
		if r := recover(); r != nil {
			g.panics.Add(1)
			g.resolve(&g.failed, j.capture)
		}
		if !finished {
			j.tr.Finish()
		}
	}()
	for ap := range j.bursts {
		if !g.breakers.Allow(ap) {
			delete(j.bursts, ap)
		}
	}
	if len(j.bursts) < 2 {
		g.breakerDropped.Add(1)
		g.resolve(&g.dropped, j.capture)
		return
	}
	t0 := time.Now()
	loc, reports, _, err := g.in.locs[mode].LocalizeBurstsTraced(j.bursts, j.tr)
	t1 := time.Now()
	if err != nil {
		g.localizeFailed.Add(1)
		g.resolve(&g.failed, j.capture)
		return
	}
	emit := time.Now().UnixNano()
	g.fixes.Publish(feed.Fix{
		MAC: j.mac, X: loc.X, Y: loc.Y, Confidence: loc.Confidence, Mode: loc.Mode,
		CaptureNs: j.capture, EmitNs: emit, APs: len(reports),
	})
	t2 := time.Now()
	g.published.Add(1)

	fx := surgeFix{capture: j.capture, emit: emit, offered: j.offered, mode: mode, loc: loc, truthErr: -1}
	if t, ok := loadgen.TargetIndex(j.mac); ok {
		fx.truthErr = loc.Point.Dist(g.in.scene.Truth(t))
	}
	var td *trace.TraceData
	if j.tr != nil {
		j.tr.Finish()
		finished = true
		td = findTrace(g.tracer, j.tr.ID())
		// The burst's trace starts at assembly, so it is the root here:
		// queue wait, the pipeline call and publishing nest under it.
		root := g.rec.importTrace(td, j.offered, -1)
		g.rec.add("admit.sojourn", j.offered, root, enqueued, t0)
		g.rec.add("spotfi.localize", j.offered, root, t0, t1)
		g.rec.add("feed.publish", j.offered, root, t1, t2)
	}
	g.mu.Lock()
	if td != nil && g.traces < keptTraces {
		g.traces++
		fx.reports, fx.bursts, fx.td = reports, j.bursts, td
	}
	g.out = append(g.out, fx)
	g.publishUs = append(g.publishUs, float64(t2.Sub(t1))/1e3)
	g.mu.Unlock()
}

// resolve records the capture time of a burst that ended without a fix.
func (g *graph) resolve(list *[]int64, capture int64) {
	g.mu.Lock()
	*list = append(*list, capture)
	g.mu.Unlock()
}

// captureNs is the newest sender timestamp in a burst: when its last
// packet was due.
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

// generator offers bursts on schedule from one goroutine: for each burst
// it interleaves the packets of the target's APs, stamping each with the
// burst's due time, and passes every frame through wire decoding into
// the collector as the server's connection handler would.
type generator struct {
	in  *surgeInputs
	g   *graph
	rec *recorder
	seq []uint64
	buf []byte
	rd  bytes.Reader

	frames, rejected int64
	lateMs           []float64
	decodeUs, addUs  []float64
}

func (gen *generator) run(from, until time.Time, rate float64, first int) int {
	interval := time.Duration(float64(time.Second) / rate)
	k := 0
	for due := from; due.Before(until); due = from.Add(time.Duration(k) * interval) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		gen.lateMs = append(gen.lateMs, float64(time.Since(due))/1e6)
		gen.offer(first+k, due)
		k++
	}
	return k
}

// offer sends offered burst n, due at due.
func (gen *generator) offer(n int, due time.Time) {
	gen.g.offering = n
	scene := gen.in.scene
	t := n % scene.Cfg.Targets
	pos := scene.PosIndex(t)
	mac := scene.MAC(t)
	aps := scene.APsForPos(pos)
	header := gen.in.enc.Header()
	for r := 0; r < scene.Cfg.Batch; r++ {
		for _, a := range aps {
			gen.seq[a]++
			payload := gen.in.enc.Payloads(a, pos)[r]
			gen.buf = append(append(gen.buf[:0], header...), payload...)
			if err := loadgen.PatchPayload(gen.buf[len(header):], gen.seq[a], due.UnixNano(), mac); err != nil {
				gen.rejected++
				continue
			}
			gen.deliver(a, n)
		}
	}
}

// deliver decodes one frame and adds its packet, as server.handleConn
// does for an AP connection.
func (gen *generator) deliver(apID, n int) {
	t0 := time.Now()
	gen.rd.Reset(gen.buf)
	f, err := wireRead(&gen.rd)
	t1 := time.Now()
	gen.frames++
	gen.g.smetrics.FramesTotal.Inc()
	if err != nil {
		gen.rejected++
		if errors.Is(err, csi.ErrNonFinite) {
			gen.g.breakers.NonFiniteCSI(apID)
		}
		return
	}
	if f.APID != apID {
		gen.rejected++
		return
	}
	if err := gen.g.collector.Add(f); err != nil {
		gen.rejected++
		return
	}
	t2 := time.Now()
	if gen.rec != nil {
		gen.decodeUs = append(gen.decodeUs, float64(t1.Sub(t0))/1e3)
		gen.addUs = append(gen.addUs, float64(t2.Sub(t1))/1e3)
		gen.rec.add("wire.decode", n, -1, t0, t1)
		gen.rec.add("server.add", n, -1, t1, t2)
	}
}

// runSurge drives the serving pipeline open loop: a lead-in below
// capacity, then the surge for the measured window, then a drain.
func runSurge(o runOpts) (*result, violations, error) {
	var (
		in     *surgeInputs
		g      *graph
		setups []float64
	)
	rec := newRecorder(o.traced)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		// The quality monitor feeding the breakers is part of the
		// localizer config, so each setup wires a fresh graph.
		reg := obs.NewRegistry()
		pm := spotfi.NewPipelineMetrics(reg)
		x, monitor := newGraph(pm, reg, o.traced, rec)
		// spotfi-server's default -bounds, which is also the loadgen
		// scene's default region.
		cfg := spotfi.DefaultConfig(spotfi.Bounds{MinX: 0, MinY: 0, MaxX: 16, MaxY: 10})
		cfg.Metrics = pm
		cfg.QualityMonitor = monitor
		built, err := buildSurge(o.seed, cfg)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		x.in = built
		in, g = built, x
	}
	var viol violations
	stopSweeper, err := g.start()
	if err != nil {
		return nil, nil, err
	}
	gen := &generator{in: in, g: g, rec: rec, seq: make([]uint64, len(in.scene.APs))}

	start := time.Now()
	nLead := gen.run(start, start.Add(leadIn), leadInRate, 0)

	surgeStart := start.Add(leadIn)
	surgeEnd := surgeStart.Add(o.seconds)
	snap0 := g.snapshot()
	runtime.GC()
	hs := startHeapSampler()
	allocs0 := heapAllocs()
	win := newWindows()
	stopWindows := make(chan struct{})
	windowsDone := make(chan struct{})
	go func() {
		defer close(windowsDone)
		tick := time.NewTicker(windowLength)
		defer tick.Stop()
		for {
			select {
			case <-stopWindows:
				return
			case now := <-tick.C:
				win.observe(now, g.published.Load(), g.pushed.Load())
			}
		}
	}()
	lateFrom := len(gen.lateMs)
	nSurge := gen.run(surgeStart, surgeEnd, surgeRate, nLead)
	close(stopWindows)
	<-windowsDone

	// Drain as spotfi-server does on SIGTERM: stop assembly, let the
	// workers finish what is queued against the drain deadline.
	discarded := g.collector.Shutdown()
	g.adq.Close()
	done := make(chan struct{})
	go func() {
		g.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainDeadline):
		g.adq.Abort()
		<-done
	}
	stopSweeper()
	g.fixes.Close()
	allocs := heapAllocs() - allocs0
	peak := hs.stop()
	snap1 := g.snapshot()

	fmt.Fprintf(os.Stderr, "serve-surge: offered %d bursts, assembled %d, delivered %d, published %d, modes full/fastpath/coarse %v\n",
		nLead+nSurge, g.pushed.Load(), g.delivered.Load(), g.published.Load(), g.modes)

	// Account for every packet and every assembled burst.
	totalOffered := nLead + nSurge
	packetsOffered := int64(totalOffered * len(in.scene.APsForPos(0)) * in.scene.Cfg.Batch)
	dropped, expired := g.smetrics.PacketsDropped.Value(), g.smetrics.PacketsExpired.Value()
	if got := gen.frames; got != packetsOffered {
		viol.addf("generator sent %d frames for %d offered packets", got, packetsOffered)
	}
	if gen.rejected != 0 {
		viol.addf("%d frames rejected by wire decoding or the collector", gen.rejected)
	}
	accounted := g.emittedPackets.Load() + int64(dropped) + int64(expired) + int64(discarded)
	if accounted != packetsOffered {
		viol.addf("packets: %d offered, %d in bursts + %d dropped + %d expired + %d pending at drain",
			packetsOffered, g.emittedPackets.Load(), dropped, expired, discarded)
	}
	emitted, _ := g.collector.Stats()
	var shedTotal int64
	g.mu.Lock()
	for _, caps := range g.shed {
		shedTotal += int64(len(caps))
	}
	g.mu.Unlock()
	if int64(emitted) != g.pushed.Load() || g.pushed.Load() != g.delivered.Load()+shedTotal {
		viol.addf("bursts: %d assembled, %d admitted, %d delivered + %d shed", emitted, g.pushed.Load(), g.delivered.Load(), shedTotal)
	}
	if d := g.delivered.Load(); d != g.published.Load()+g.breakerDropped.Load()+g.localizeFailed.Load()+g.panics.Load() {
		viol.addf("bursts: %d delivered, %d published + %d breaker-dropped + %d failed + %d panicked",
			d, g.published.Load(), g.breakerDropped.Load(), g.localizeFailed.Load(), g.panics.Load())
	}
	if q := g.adq.Len(); q != 0 {
		viol.addf("%d bursts still queued after drain", q)
	}
	if t, p := g.collector.PendingStats(); t != 0 || p != 0 {
		viol.addf("%d packets of %d targets still buffered after drain", p, t)
	}
	bounds := in.cfg.Locate.Bounds
	for _, fx := range g.out {
		if !validFix(fx.loc.Point, bounds) {
			viol.addf("fix (%v, %v) is not finite or outside %+v", fx.loc.X, fx.loc.Y, bounds)
		}
	}

	// Score the bursts whose newest packet was due in the surge window.
	in0, in1 := surgeStart.UnixNano(), surgeEnd.UnixNano()
	inWindow := func(c int64) bool { return c >= in0 && c < in1 }
	var lat, errs []float64
	var fixesIn int
	for _, fx := range g.out {
		if !inWindow(fx.capture) {
			continue
		}
		fixesIn++
		lat = append(lat, float64(fx.emit-fx.capture)/1e6)
		if fx.truthErr >= 0 {
			errs = append(errs, fx.truthErr)
		}
	}
	attempted := fixesIn
	g.mu.Lock()
	for _, caps := range g.shed {
		for _, c := range caps {
			if inWindow(c) {
				attempted++
			}
		}
	}
	for _, c := range g.dropped {
		if inWindow(c) {
			attempted++
		}
	}
	var failedIn int
	for _, c := range g.failed {
		if inWindow(c) {
			attempted++
			failedIn++
		}
	}
	g.mu.Unlock()
	if attempted == 0 || fixesIn == 0 {
		viol.addf("no fixes delivered in the surge window (%d bursts attempted)", attempted)
		return nil, viol, nil
	}

	// Re-derive the traced fixes through the layers' public functions.
	lay := newLayers()
	var layRec *recorder
	if o.traced {
		layRec = rec
	}
	// One verifier per rung: the coarse rung sweeps a coarser lattice
	// before refining, as spotfi.BuildLadder configures it, so its MUSIC
	// estimates are re-derived with the same parameters.
	var vfs [3]*verifier
	for m := range vfs {
		cfg := in.cfg
		if admit.Mode(m) == admit.ModeCoarse {
			cfg.Music.CoarseGridFactor *= 2
		}
		vf, err := newVerifier(cfg, in.aps)
		if err != nil {
			return nil, nil, err
		}
		vfs[m] = vf
	}
	for _, fx := range g.out {
		if fx.td == nil {
			continue
		}
		var l *layers
		if o.traced {
			l = lay
			pipelineLayers(lay, fx.td)
		}
		vfs[fx.mode].fix(fx.loc, fx.reports, estimatorKinds(fx.td), fx.bursts, &viol, l, layRec, fx.offered, -1)
	}

	// Shed and breaker-dropped bursts are admission decisions, not failed
	// operations: they count against delivered_ratio. Failed counts the
	// bursts the pipeline could not localize.
	res := &result{Attempted: attempted, Failed: int(failedIn)}
	if !o.traced {
		res.Metrics = map[string]metric{
			"setup_s":         {median(setups), "s"},
			"fix_rate":        {median(win.rate), "1/s"},
			"fix_ms_p50":      {quantile(lat, 0.5), "ms"},
			"fix_ms_p90":      {quantile(lat, 0.9), "ms"},
			"cpu_ms_per_fix":  {median(win.cpuPerFix), "ms"},
			"allocs_per_fix":  {float64(allocs) / float64(fixesIn), "count"},
			"heap_peak_mb":    {float64(peak) / (1 << 20), "MB"},
			"err_m_p50":       {quantile(errs, 0.5), "m"},
			"delivered_ratio": {median(win.deliveries), "ratio"},
		}
		return res, viol, nil
	}

	vals := make(map[string]float64)
	for _, m := range perLayerNames {
		vals[m.name] = lay.mean(m.name)
	}
	d := snap1.sub(snap0)
	vals["music.fastpath_accept_ratio"] = ratio(d.fpAcc, d.fpAcc+d.fpFal)
	vals["spotfi.aps_skipped"] = d.apsSkipped
	vals["wire.decode_us"] = mean(gen.decodeUs)
	vals["wire.frames"] = float64(gen.frames)
	vals["server.add_us"] = mean(gen.addUs)
	vals["server.bursts_emitted"] = d.emitted
	vals["server.expired_packets"] = d.expired
	vals["feed.publish_us"] = mean(g.publishUs)
	vals["feed.published"] = d.published
	vals["gen.late_ms_p99"] = quantile(gen.lateMs[lateFrom:], 0.99)
	vals["gen.offered"] = float64(nSurge)
	vals["spotfi.err_m_p90"] = quantile(errs, 0.9)
	g.mu.Lock()
	vals["admit.sojourn_ms_p50"] = quantile(g.sojournMs, 0.5)
	vals["admit.sojourn_ms_p90"] = quantile(g.sojournMs, 0.9)
	vals["admit.shed_codel"] = float64(len(g.shed[admit.ShedCoDel]))
	vals["admit.shed_stale"] = float64(len(g.shed[admit.ShedStale]))
	vals["admit.shed_full"] = float64(len(g.shed[admit.ShedFull]))
	vals["admit.shed_ratio"] = ratio(float64(shedTotal), float64(shedTotal+g.delivered.Load()))
	total := float64(g.modes[0] + g.modes[1] + g.modes[2])
	vals["admit.mode_full_share"] = ratio(float64(g.modes[0]), total)
	vals["admit.mode_fastpath_share"] = ratio(float64(g.modes[1]), total)
	vals["admit.mode_coarse_share"] = ratio(float64(g.modes[2]), total)
	g.mu.Unlock()
	vals["admit.depth_max"] = float64(g.depthMax.Load())
	vals["admit.mode_changes"] = float64(g.modeChanges.Load())
	vals["admit.breaker_opens"] = float64(g.breakerOpens.Load())
	vals["admit.breaker_dropped"] = float64(g.breakerDropped.Load())
	vals["server.assembly_ms_p50"] = quantile(rec.durationsMs("spotfi."+trace.StageAssemble), 0.5)
	vals["spotfi.localize_ms"] = mean(rec.durationsMs("spotfi.localize"))
	vals["trace.overhead_ratio"] = tracingOverhead(in, g.out)
	res.Metrics = perLayerMetrics(vals)
	if err := rec.write(spanPath("serve-surge", o.seed)); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	return res, viol, nil
}

// wireRead reads and decodes one CSI-report frame.
func wireRead(r io.Reader) (*csi.Packet, error) {
	f, err := wire.ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return wire.DecodeCSIReport(f)
}

// counters is a snapshot of the counters the program exports.
type counters struct {
	fpAcc, fpFal, apsSkipped    float64
	emitted, expired, published float64
}

func (g *graph) snapshot() counters {
	return counters{
		fpAcc:      float64(g.pm.FastPathAccepted.Value()),
		fpFal:      float64(g.pm.FastPathFallbacks.Value()),
		apsSkipped: float64(g.pm.APsSkipped.Value()),
		emitted:    float64(g.smetrics.BurstsEmitted.Value()),
		expired:    float64(g.smetrics.PacketsExpired.Value()),
		published:  float64(g.feedMetrics.Published.Value()),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		fpAcc: c.fpAcc - o.fpAcc, fpFal: c.fpFal - o.fpFal, apsSkipped: c.apsSkipped - o.apsSkipped,
		emitted: c.emitted - o.emitted, expired: c.expired - o.expired, published: c.published - o.published,
	}
}

// overheadPairs is how many assembled bursts tracingOverhead localizes
// twice.
const overheadPairs = 24

// tracingOverhead localizes kept bursts on the full rung without and then
// with the pipeline's tracer, and returns the ratio of the traced to the
// untraced time.
func tracingOverhead(in *surgeInputs, out []surgeFix) float64 {
	tracer := trace.New(trace.Config{SampleEvery: 1, Capacity: 8})
	var plain, traced time.Duration
	n := 0
	for _, fx := range out {
		if fx.bursts == nil || n == overheadPairs {
			continue
		}
		n++
		t0 := time.Now()
		in.locs[0].LocalizeBursts(fx.bursts)
		t1 := time.Now()
		tr := tracer.Start(trace.StageBurst)
		in.locs[0].LocalizeBurstsTraced(fx.bursts, tr)
		t2 := time.Now()
		tr.Finish()
		plain += t1.Sub(t0)
		traced += t2.Sub(t1)
	}
	return ratio(float64(traced), float64(plain))
}
