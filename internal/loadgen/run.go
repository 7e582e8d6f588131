package loadgen

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spotfi/internal/feed"
	"spotfi/internal/obs"
	"spotfi/internal/obs/slo"
	"spotfi/internal/wire"
)

// RunConfig parameterizes one load run.
type RunConfig struct {
	// ServerAddr is the spotfi-server -listen address the AP streams dial.
	ServerAddr string
	// DebugURL is the server's debug base URL (http://host:port) for
	// /metrics, /debug/fixes, and /debug/slo.
	DebugURL string
	// Scene is the synthetic deployment to drive.
	Scene *Scene
	// Phases is the offered-load schedule.
	Phases []Phase
	// SendBuffer is the per-AP job queue depth (default 128). A full
	// queue drops the send client-side — the open-loop generator never
	// blocks on a slow connection.
	SendBuffer int
	// Settle is how long to keep listening for fixes after the last
	// phase, so in-flight bursts drain into the tail phase's stats
	// (default 2s).
	Settle time.Duration
	// MaxFixes caps recorded fix samples (default 1<<20); overflow is
	// counted, not silently truncated.
	MaxFixes int
	// DialTimeout bounds each AP connection attempt (default 5s).
	DialTimeout time.Duration
	// Logger receives progress; nil discards.
	Logger *slog.Logger
}

func (c RunConfig) withDefaults() RunConfig {
	if c.SendBuffer <= 0 {
		c.SendBuffer = 128
	}
	if c.Settle <= 0 {
		c.Settle = 2 * time.Second
	}
	if c.MaxFixes <= 0 {
		c.MaxFixes = 1 << 20
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// PhaseStats is one phase's raw measurements.
type PhaseStats struct {
	Phase Phase
	// StartNs/EndNs bound the phase's wall-clock window. The last
	// phase's window extends through the settle period so in-flight
	// fixes are attributed rather than lost.
	StartNs, EndNs int64
	// Offered counts bursts the scheduler offered; Sends counts per-AP
	// burst enqueues attempted (Offered × APsPerTarget); Dropped counts
	// enqueues rejected because an AP's send queue was full.
	Offered, Sends, Dropped uint64
	// Fixes counts feed fixes attributed to this phase.
	Fixes uint64
	// Latency holds packet→fix latencies (seconds) in HDR-style
	// exponential buckets.
	Latency *slo.Dist
	// Errors holds per-fix localization error against ground truth, in
	// meters.
	Errors []float64
	// Counters is the server-side delta over the phase.
	Counters serverCounters
}

// Result is one completed run.
type Result struct {
	Phases []PhaseStats
	// TotalFixes counts every fix the feed delivered (attributed or not).
	TotalFixes uint64
	// OverflowFixes counts fixes past the MaxFixes sample cap.
	OverflowFixes uint64
	// SendErrs counts AP connections lost mid-run.
	SendErrs uint64
	// FeedErr records a feed stream failure (empty = clean); the run
	// still returns whatever was measured before the failure.
	FeedErr string
	// SLO is the raw /debug/slo snapshot taken after the last phase.
	SLO json.RawMessage
}

// latencySaneNs discards latency samples from clock skew or foreign
// traffic: a fix whose capture timestamp is more than 10 minutes old is
// not one of ours in a healthy run.
const latencySaneNs = int64(10 * time.Minute)

type apJob struct {
	pos       int
	mac       string
	captureNs int64
}

type fixRec struct {
	emitNs int64
	latSec float64 // negative = no valid latency
	errM   float64 // negative = MAC not ours / unknown target
}

// Run executes the schedule against a live server and returns the
// measurements. The context aborts the run early (the partial result is
// discarded); clean completion includes the settle drain.
func Run(ctx context.Context, cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Scene == nil {
		return nil, fmt.Errorf("loadgen: RunConfig.Scene is required")
	}
	if cfg.ServerAddr == "" || cfg.DebugURL == "" {
		return nil, fmt.Errorf("loadgen: ServerAddr and DebugURL are required")
	}
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("loadgen: empty phase schedule")
	}
	enc, err := NewEncoder(cfg.Scene)
	if err != nil {
		return nil, err
	}
	scene := cfg.Scene

	// One long-lived connection per AP, handshook before any traffic.
	senders := make([]*apSender, len(scene.APs))
	var sendErrs atomic.Uint64
	for a := range scene.APs {
		s, err := dialSender(cfg, enc, a, &sendErrs)
		if err != nil {
			for _, prev := range senders[:a] {
				prev.close()
			}
			return nil, err
		}
		senders[a] = s
	}
	closeSenders := func() {
		for _, s := range senders {
			s.close()
		}
	}

	// The fix feed must be streaming before the first burst so no fix is
	// missed. Its context outlives the scheduler: the settle drain reads
	// fixes for bursts still in flight when the last phase ended.
	feedCtx, feedCancel := context.WithCancel(context.Background())
	defer feedCancel()
	fc, err := openFeed(feedCtx, cfg.DebugURL)
	if err != nil {
		closeSenders()
		return nil, err
	}
	var (
		fixMu    sync.Mutex
		recs     []fixRec
		total    uint64
		overflow uint64
		feedErr  string
	)
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	//lint:allow gospawn feed-reader goroutine, WaitGroup-joined after the settle drain
	go func() {
		defer feedWG.Done()
		err := fc.stream(func(fx feed.Fix) {
			rec := recordFix(scene, fx)
			fixMu.Lock()
			total++
			if len(recs) < cfg.MaxFixes {
				recs = append(recs, rec)
			} else {
				overflow++
			}
			fixMu.Unlock()
		})
		if err != nil && feedCtx.Err() == nil {
			fixMu.Lock()
			feedErr = err.Error()
			fixMu.Unlock()
		}
	}()

	scrapeClient := &http.Client{Timeout: 10 * time.Second}
	prev, err := scrapeCounters(ctx, scrapeClient, cfg.DebugURL)
	if err != nil {
		closeSenders()
		feedCancel()
		feedWG.Wait()
		return nil, fmt.Errorf("loadgen: baseline scrape: %w", err)
	}

	// Drive the schedule. Each phase scrapes the server's counters at its
	// boundary; the last boundary lands after the settle drain so tail
	// fixes and sheds are attributed.
	res := &Result{}
	var burstCounter uint64
	for i, ph := range cfg.Phases {
		st := PhaseStats{Phase: ph, StartNs: time.Now().UnixNano()}
		if err := runPhase(ctx, scene, senders, ph, &st, &burstCounter); err != nil {
			closeSenders()
			feedCancel()
			feedWG.Wait()
			return nil, err
		}
		last := i == len(cfg.Phases)-1
		if last {
			if err := sleepCtx(ctx, cfg.Settle); err != nil {
				closeSenders()
				feedCancel()
				feedWG.Wait()
				return nil, err
			}
		}
		st.EndNs = time.Now().UnixNano()
		cur, err := scrapeCounters(ctx, scrapeClient, cfg.DebugURL)
		if err != nil {
			closeSenders()
			feedCancel()
			feedWG.Wait()
			return nil, fmt.Errorf("loadgen: phase %q scrape: %w", ph.Name, err)
		}
		st.Counters = cur.sub(prev)
		prev = cur
		cfg.Logger.Info("phase complete", "phase", ph.Name,
			"offered", st.Offered, "dropped", st.Dropped,
			"shed", st.Counters.Shed, "delivered", st.Counters.Delivered)
		res.Phases = append(res.Phases, st)
	}

	// Stop traffic and the feed, then snapshot the SLO state the run
	// induced.
	closeSenders()
	feedCancel()
	feedWG.Wait()

	sloRaw, err := fetchSLO(ctx, scrapeClient, cfg.DebugURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /debug/slo: %w", err)
	}
	res.SLO = sloRaw
	res.SendErrs = sendErrs.Load()

	fixMu.Lock()
	res.TotalFixes = total
	res.OverflowFixes = overflow
	res.FeedErr = feedErr
	attributeFixes(res.Phases, recs)
	fixMu.Unlock()
	return res, nil
}

// runPhase offers bursts at the phase's scheduled rate until its
// duration elapses. Open loop: enqueues to AP senders never block; a
// full queue is a counted client-side drop.
func runPhase(ctx context.Context, scene *Scene, senders []*apSender, ph Phase, st *PhaseStats, burstCounter *uint64) error {
	start := time.Now()
	next := start
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if elapsed >= ph.Duration {
			return nil
		}
		rate := ph.rateAt(elapsed)
		if rate <= 0 {
			idle := 20 * time.Millisecond
			if rem := ph.Duration - elapsed; rem < idle {
				idle = rem
			}
			if err := sleepCtx(ctx, idle); err != nil {
				return err
			}
			next = time.Now()
			continue
		}

		t := int(*burstCounter % uint64(scene.Cfg.Targets))
		*burstCounter++
		pos := scene.PosIndex(t)
		mac := scene.MAC(t)
		captureNs := time.Now().UnixNano()
		st.Offered++
		for _, a := range scene.APsForPos(pos) {
			st.Sends++
			select {
			case senders[a].jobs <- apJob{pos: pos, mac: mac, captureNs: captureNs}:
			default:
				st.Dropped++
			}
		}

		next = next.Add(time.Duration(float64(time.Second) / rate))
		if d := time.Until(next); d > 0 {
			if err := sleepCtx(ctx, d); err != nil {
				return err
			}
		} else if d < -250*time.Millisecond {
			// The scheduler stalled (GC, CPU starvation). Cap the
			// catch-up backlog: a bounded burst of back-to-back sends is
			// open-loop, an unbounded storm is a measurement artifact.
			next = time.Now()
		}
	}
}

// apSender owns one AP's connection: a single writer goroutine drains
// the job queue, patches the pre-encoded frames, and streams them.
type apSender struct {
	jobs chan apJob
	conn net.Conn
	wg   sync.WaitGroup
	once sync.Once
}

func dialSender(cfg RunConfig, enc *Encoder, apIdx int, sendErrs *atomic.Uint64) (*apSender, error) {
	conn, err := net.DialTimeout("tcp", cfg.ServerAddr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("loadgen: dial AP %d: %w", apIdx, err)
	}
	bw := bufio.NewWriterSize(conn, 64*1024)
	if err := wire.WriteFrame(bw, wire.EncodeHello(int32(apIdx))); err != nil {
		//lint:allow errdrop best-effort cleanup; the write error is what gets reported
		conn.Close()
		return nil, fmt.Errorf("loadgen: hello AP %d: %w", apIdx, err)
	}
	if err := bw.Flush(); err != nil {
		//lint:allow errdrop best-effort cleanup; the flush error is what gets reported
		conn.Close()
		return nil, fmt.Errorf("loadgen: hello AP %d: %w", apIdx, err)
	}
	s := &apSender{jobs: make(chan apJob, cfg.SendBuffer), conn: conn}
	s.wg.Add(1)
	//lint:allow gospawn one writer goroutine per AP connection, WaitGroup-joined by close()
	go func() {
		defer s.wg.Done()
		var seq uint64
		dead := false
		header := enc.Header()
		for j := range s.jobs {
			if dead {
				continue // drain so the scheduler's enqueues stay non-blocking
			}
			payloads := enc.Payloads(apIdx, j.pos)
			werr := func() error {
				for _, payload := range payloads {
					seq++
					if err := PatchPayload(payload, seq, j.captureNs, j.mac); err != nil {
						return err
					}
					if _, err := bw.Write(header); err != nil {
						return err
					}
					if _, err := bw.Write(payload); err != nil {
						return err
					}
				}
				return bw.Flush()
			}()
			if werr != nil {
				dead = true
				sendErrs.Add(1)
				cfg.Logger.Warn("AP stream lost", "ap", apIdx, "err", werr)
			}
		}
		if !dead {
			if err := wire.WriteFrame(bw, wire.Frame{Type: wire.TypeBye}); err == nil {
				//lint:allow errdrop best-effort flush of the goodbye frame on shutdown
				bw.Flush()
			}
		}
	}()
	return s, nil
}

// close stops the sender: no more jobs, writer joined, connection shut.
// Idempotent.
func (s *apSender) close() {
	s.once.Do(func() {
		close(s.jobs)
		s.wg.Wait()
		//lint:allow errdrop teardown of a connection whose useful traffic already completed
		s.conn.Close()
	})
}

// feedClient is a streaming /debug/fixes subscription.
type feedClient struct {
	resp *http.Response
}

func openFeed(ctx context.Context, baseURL string) (*feedClient, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/debug/fixes", nil)
	if err != nil {
		return nil, err
	}
	// A dedicated client without a timeout: this is a deliberately
	// long-lived stream, canceled via ctx.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: GET /debug/fixes: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		//lint:allow errdrop best-effort cleanup; the HTTP status is what gets reported
		resp.Body.Close()
		return nil, fmt.Errorf("loadgen: GET /debug/fixes: %s", resp.Status)
	}
	return &feedClient{resp: resp}, nil
}

// stream decodes ndjson fixes until the stream ends or errors.
func (fc *feedClient) stream(fn func(feed.Fix)) error {
	defer fc.resp.Body.Close()
	sc := bufio.NewScanner(fc.resp.Body)
	sc.Buffer(make([]byte, 0, 16*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var fx feed.Fix
		if err := json.Unmarshal(line, &fx); err != nil {
			return fmt.Errorf("loadgen: bad feed line %q: %w", line, err)
		}
		fn(fx)
	}
	return sc.Err()
}

// recordFix turns one feed fix into the compact sample the aggregator
// keeps.
func recordFix(scene *Scene, fx feed.Fix) fixRec {
	rec := fixRec{emitNs: fx.EmitNs, latSec: -1, errM: -1}
	if fx.CaptureNs > 0 && fx.EmitNs >= fx.CaptureNs && fx.EmitNs-fx.CaptureNs < latencySaneNs {
		rec.latSec = float64(fx.EmitNs-fx.CaptureNs) / 1e9
	}
	if t, ok := TargetIndex(fx.MAC); ok && t < scene.Cfg.Targets {
		truth := scene.Truth(t)
		dx, dy := fx.X-truth.X, fx.Y-truth.Y
		rec.errM = dx*dx + dy*dy
	}
	return rec
}

// attributeFixes assigns each recorded fix to the phase whose wall-clock
// window contains its emit timestamp. Fixes before the first window
// (none in practice) fold into the first phase; the last window is
// open-ended through the settle drain.
func attributeFixes(phases []PhaseStats, recs []fixRec) {
	if len(phases) == 0 {
		return
	}
	bounds := latencyBuckets()
	for i := range phases {
		phases[i].Latency = slo.NewDist(bounds)
	}
	for _, r := range recs {
		i := len(phases) - 1
		for j := 0; j < len(phases)-1; j++ {
			if r.emitNs < phases[j].EndNs {
				i = j
				break
			}
		}
		ph := &phases[i]
		ph.Fixes++
		if r.latSec >= 0 {
			ph.Latency.Observe(r.latSec)
		}
		if r.errM >= 0 {
			// recordFix stores squared distances to keep the feed-reader
			// cheap; take the root once per fix here.
			ph.Errors = append(ph.Errors, math.Sqrt(r.errM))
		}
	}
}

// latencyBuckets is the HDR-style grid for packet→fix latency: 100 µs to
// 10 s at 5 buckets per decade — the same grid the server's
// spotfi_fix_latency_seconds histogram uses.
func latencyBuckets() []float64 { return obs.ExpBuckets(100e-6, 10, 5) }

func fetchSLO(ctx context.Context, client *http.Client, baseURL string) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/debug/slo", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/slo: %s", resp.Status)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if !json.Valid(raw) {
		return nil, fmt.Errorf("GET /debug/slo: response is not JSON")
	}
	return json.RawMessage(raw), nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
