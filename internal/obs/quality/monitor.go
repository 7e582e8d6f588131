package quality

import (
	"strconv"
	"sync"
	"time"

	"spotfi/internal/obs"
)

// ScoreBuckets are the histogram bucket bounds for the [0,1] confidence
// score — finer near the ends where the SLO questions live ("how many
// bursts are nearly certain / nearly garbage").
var ScoreBuckets = []float64{
	0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
}

// DefaultFloor is the default SLO threshold: bursts scoring below it count
// as low-quality.
const DefaultFloor = 0.25

// recentBursts is the capacity of the recent-bursts ring backing the
// scoreboard.
const recentBursts = 512

// Config configures a Monitor. The zero value selects all defaults.
type Config struct {
	// Floor is the SLO threshold: bursts scoring below it increment
	// spotfi_quality_low_total. 0 selects DefaultFloor; negative disables
	// the low counter.
	Floor float64
	// OnBurst, when non-nil, receives every scored burst right after it is
	// folded into the monitor — the hook feeding per-AP instantaneous
	// scores to circuit breakers. Called outside the monitor lock, on the
	// goroutine that localized the burst; it must not call Observe.
	OnBurst func(sc Score)
	// OnDriftBreach, when non-nil, fires per AP whose burst breached ≥1
	// drift baselines, with the breach count. Called outside the monitor
	// lock; it must not call Observe.
	OnDriftBreach func(apID, breached int)
}

// Monitor aggregates burst confidence scores: it feeds the quality metrics
// (score histogram, SLO counters, per-AP health gauges), runs the per-AP
// drift detector, and keeps a bounded ring of recent bursts for the
// /debug/quality scoreboard. All methods are safe on a nil receiver and
// for concurrent use.
type Monitor struct {
	cfg Config
	reg *obs.Registry
	now func() time.Time

	scoreHist *obs.Histogram
	bursts    *obs.Counter
	low       *obs.Counter
	breaches  *obs.Counter

	mu     sync.Mutex
	drift  *driftDetector
	ring   []BurstRecord
	next   int
	total  uint64
	lowN   uint64
	gauges map[int]bool // AP IDs with a registered health gauge
}

// NewMonitor returns a Monitor registering its metrics on reg (skipped when
// reg is nil — the monitor still scores, drifts, and serves the
// scoreboard).
func NewMonitor(reg *obs.Registry, cfg Config) *Monitor {
	if cfg.Floor == 0 {
		cfg.Floor = DefaultFloor
	}
	m := &Monitor{
		cfg:    cfg,
		reg:    reg,
		now:    time.Now,
		drift:  newDriftDetector(),
		ring:   make([]BurstRecord, 0, recentBursts),
		gauges: make(map[int]bool),
	}
	if reg != nil {
		m.scoreHist = reg.Histogram("spotfi_quality_score",
			"Per-burst localization confidence score in [0,1].",
			ScoreBuckets, nil)
		m.bursts = reg.Counter("spotfi_quality_bursts_total",
			"Bursts scored by the quality monitor.", nil)
		m.low = reg.Counter("spotfi_quality_low_total",
			"Bursts whose confidence score fell below the quality floor.", nil)
		m.breaches = reg.Counter("spotfi_quality_drift_breaches_total",
			"Per-AP drift-baseline breaches across all tracked observables.", nil)
	}
	return m
}

// registerAPHealth registers the spotfi_ap_health gauge for one AP. The
// gauge reads through the monitor at scrape time, so it always reflects the
// current drift state.
func (m *Monitor) registerAPHealth(apID int) {
	if m.reg == nil {
		return
	}
	m.reg.GaugeFunc("spotfi_ap_health",
		"Per-AP estimate health in [0,1]: EWMA confidence discounted by drift breaches.",
		obs.Labels{"ap": strconv.Itoa(apID)},
		func() float64 { return m.APHealth(apID) })
}

// Floor returns the configured SLO threshold.
func (m *Monitor) Floor() float64 {
	if m == nil {
		return 0
	}
	return m.cfg.Floor
}

// APBurstScore is one AP's contribution to a recorded burst.
type APBurstScore struct {
	APID  int     `json:"ap"`
	Score float64 `json:"score"`
}

// BurstRecord is one scored burst in the scoreboard's recent ring.
type BurstRecord struct {
	Time      time.Time      `json:"time"`
	Overall   float64        `json:"overall"`
	Breakdown Breakdown      `json:"breakdown"`
	PerAP     []APBurstScore `json:"per_ap"`
}

// Observe folds one scored burst into the monitor: metrics, drift
// baselines, and the recent ring. No-op on a nil receiver.
func (m *Monitor) Observe(sc Score) {
	if m == nil {
		return
	}
	m.bursts.Inc()
	m.scoreHist.Observe(sc.Overall)
	isLow := m.cfg.Floor > 0 && sc.Overall < m.cfg.Floor
	if isLow {
		m.low.Inc()
	}

	now := m.now()
	rec := BurstRecord{Time: now, Overall: sc.Overall, Breakdown: sc.Breakdown}
	breached := 0
	var fresh []int
	type apBreach struct{ ap, n int }
	var breaches []apBreach
	m.mu.Lock()
	for _, ap := range sc.PerAP {
		n := m.drift.observe(ap, now)
		breached += n
		if n > 0 && m.cfg.OnDriftBreach != nil {
			breaches = append(breaches, apBreach{ap: ap.APID, n: n})
		}
		rec.PerAP = append(rec.PerAP, APBurstScore{APID: ap.APID, Score: ap.Score})
		if !m.gauges[ap.APID] {
			m.gauges[ap.APID] = true
			fresh = append(fresh, ap.APID)
		}
	}
	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, rec)
	} else {
		m.ring[m.next] = rec
	}
	m.next = (m.next + 1) % cap(m.ring)
	m.total++
	if isLow {
		m.lowN++
	}
	m.mu.Unlock()

	// Register outside the monitor lock: registration takes the registry
	// lock, and the gauge closure takes the monitor lock at scrape time.
	for _, id := range fresh {
		m.registerAPHealth(id)
	}
	if breached > 0 {
		m.breaches.Add(uint64(breached))
	}
	for _, b := range breaches {
		m.cfg.OnDriftBreach(b.ap, b.n)
	}
	if m.cfg.OnBurst != nil {
		m.cfg.OnBurst(sc)
	}
}

// APHealth returns the current [0,1] health of one AP (1 when unknown).
// Safe on a nil receiver.
func (m *Monitor) APHealth(apID int) float64 {
	if m == nil {
		return 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drift.health(apID)
}

// Snapshot is a point-in-time view of the quality state — the JSON served
// at /debug/quality.
type Snapshot struct {
	// Floor is the configured SLO threshold.
	Floor float64 `json:"floor"`
	// Bursts is how many bursts have been scored since start.
	Bursts uint64 `json:"bursts"`
	// LowBursts is how many of them scored below the floor.
	LowBursts uint64 `json:"low_bursts"`
	// APs is the per-AP health scoreboard, sorted by AP ID.
	APs []APHealth `json:"aps"`
	// Recent holds the most recent scored bursts, newest first.
	Recent []BurstRecord `json:"recent"`
}

// Snapshot returns the current quality state. Safe on a nil receiver.
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		Floor:     m.cfg.Floor,
		Bursts:    m.total,
		LowBursts: m.lowN,
		APs:       m.drift.snapshot(),
	}
	// Unroll the ring newest-first.
	n := len(m.ring)
	snap.Recent = make([]BurstRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (m.next - 1 - i + n) % n
		snap.Recent = append(snap.Recent, m.ring[idx])
	}
	return snap
}
