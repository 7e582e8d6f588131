package admit

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"spotfi/internal/obs"
)

// State is a circuit breaker's position.
type State int

const (
	// StateClosed: the AP is healthy and participates in localization.
	StateClosed State = iota
	// StateOpen: the AP is quarantined — its packets are accepted (the
	// connection stays up) but excluded from bursts until the cooldown
	// elapses.
	StateOpen
	// StateHalfOpen: the cooldown elapsed and the AP is readmitted on
	// probation; a few healthy bursts close the breaker, renewed trouble
	// reopens it with a longer cooldown.
	StateHalfOpen
)

// String returns the conventional lowercase name.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// gaugeValue is the exported encoding of a state: 0 closed, 1 open,
// 2 half-open — "is it quarantined" reads as value ≥ 1.
func (s State) gaugeValue() float64 { return float64(s) }

// FailureKind labels what went wrong, for transition logs.
type FailureKind string

const (
	// FailNonFinite: the AP streamed non-finite CSI (buggy NIC/driver).
	FailNonFinite FailureKind = "nonfinite"
	// FailReconnect: the AP's connection churned (re-handshake).
	FailReconnect FailureKind = "reconnect"
	// FailDrift: the quality monitor's drift detector breached baselines
	// for this AP.
	FailDrift FailureKind = "drift"
	// FailUnhealthy: the AP's per-burst quality score fell below
	// UnhealthyBelow.
	FailUnhealthy FailureKind = "unhealthy"
)

// BreakerConfig configures a BreakerSet. Zero fields select defaults.
type BreakerConfig struct {
	// Window is how recent failures must be to count toward a trip
	// (default 30 s).
	Window time.Duration
	// Failures is how many failures within Window trip the breaker open
	// (default 8).
	Failures int
	// Cooldown is how long an open breaker waits before readmitting the
	// AP on probation (default 15 s). A reopen doubles the wait, capped at
	// MaxCooldown; closing resets it.
	Cooldown time.Duration
	// MaxCooldown caps the exponential backoff (default 8×Cooldown).
	MaxCooldown time.Duration
	// Probes is how many healthy probation bursts close a half-open
	// breaker (default 3).
	Probes int
	// UnhealthyBelow: a per-burst AP quality score below this counts as a
	// failure (default 0.2).
	UnhealthyBelow float64
	// HealthyAbove: a probation score at or above this counts toward
	// Probes (default 0.5). Scores in between are neutral (hysteresis).
	HealthyAbove float64
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
	// OnTransition, when non-nil, observes every state change. Called
	// outside the set lock; must not call back into the BreakerSet.
	OnTransition func(ap int, from, to State, kind FailureKind)
}

func (c *BreakerConfig) fill() {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.Failures <= 0 {
		c.Failures = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 15 * time.Second
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 8 * c.Cooldown
	}
	if c.Probes <= 0 {
		c.Probes = 3
	}
	if c.UnhealthyBelow <= 0 {
		c.UnhealthyBelow = 0.2
	}
	if c.HealthyAbove <= 0 {
		c.HealthyAbove = 0.5
	}
	if c.HealthyAbove < c.UnhealthyBelow {
		c.HealthyAbove = c.UnhealthyBelow
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// failWindow is a fixed ring of the most recent failure timestamps; the
// breaker trips when the ring fills within the failure window.
type failWindow struct {
	ts []int64 // unix nanos, len = trip threshold
	n  int     // recorded failures, saturating at len(ts)
	i  int     // next write slot
}

// add records a failure at nowNs and reports whether the last len(ts)
// failures all landed within windowNs — the trip condition. It runs on
// the per-packet ingest path for non-finite CSI, so it must stay
// allocation-free.
//
//spotfi:noalloc
func (w *failWindow) add(nowNs, windowNs int64) bool {
	w.ts[w.i] = nowNs
	w.i++
	if w.i == len(w.ts) {
		w.i = 0
	}
	if w.n < len(w.ts) {
		w.n++
		if w.n < len(w.ts) {
			return false
		}
	}
	// The next write slot holds the oldest of the last len(ts) failures.
	return nowNs-w.ts[w.i] <= windowNs
}

// reset forgets all recorded failures.
func (w *failWindow) reset() { w.n, w.i = 0, 0 }

// breaker is one AP's state machine.
type breaker struct {
	state     State
	fails     failWindow
	openedAt  time.Time
	cooldown  time.Duration
	successes int // healthy probation bursts so far
	trips     uint64
	connected bool // first APConnected is normal, not churn
}

// APBreaker is one AP's row in a Snapshot.
type APBreaker struct {
	AP    int    `json:"ap"`
	State string `json:"state"`
	Trips uint64 `json:"trips"`
}

// BreakerSet holds one circuit breaker per AP, created lazily on the
// first event. It implements the server's AP event sink and is safe for
// concurrent use. Nil-receiver methods no-op (Allow returns true), so an
// unwired deployment behaves exactly as before.
type BreakerSet struct {
	cfg BreakerConfig
	reg *obs.Registry

	mu  sync.Mutex
	aps map[int]*breaker
}

// NewBreakerSet returns a BreakerSet registering per-AP state gauges
// (spotfi_ap_breaker_state) on reg; reg may be nil.
func NewBreakerSet(reg *obs.Registry, cfg BreakerConfig) *BreakerSet {
	cfg.fill()
	return &BreakerSet{cfg: cfg, reg: reg, aps: make(map[int]*breaker)}
}

// forLocked get-or-creates ap's breaker. The caller registers the state
// gauge after releasing the lock when fresh is true (the gauge closure
// re-enters the set lock at scrape time).
func (b *BreakerSet) forLocked(ap int) (br *breaker, fresh bool) {
	br, ok := b.aps[ap]
	if !ok {
		br = &breaker{fails: failWindow{ts: make([]int64, b.cfg.Failures)}, cooldown: b.cfg.Cooldown}
		b.aps[ap] = br
		fresh = true
	}
	return br, fresh
}

// registerGauge exports ap's breaker state. Called outside b.mu.
func (b *BreakerSet) registerGauge(ap int) {
	if b.reg == nil {
		return
	}
	b.reg.GaugeFunc("spotfi_ap_breaker_state",
		"Per-AP circuit breaker state: 0 closed, 1 open (quarantined), 2 half-open (probation).",
		obs.Labels{"ap": strconv.Itoa(ap)},
		func() float64 { return b.State(ap).gaugeValue() })
}

// maybeHalfOpenLocked moves an open breaker to half-open once its
// cooldown has elapsed — the lazy transition: probation starts when the
// next packet asks.
func (b *BreakerSet) maybeHalfOpenLocked(br *breaker, now time.Time) (transitioned bool) {
	if br.state == StateOpen && now.Sub(br.openedAt) >= br.cooldown {
		br.state = StateHalfOpen
		br.successes = 0
		return true
	}
	return false
}

// Allow reports whether ap may participate in localization — the
// collector's quarantine predicate. An open breaker whose cooldown has
// elapsed transitions to half-open here, readmitting the AP as its own
// probe. Safe on a nil receiver (always true).
func (b *BreakerSet) Allow(ap int) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	br, ok := b.aps[ap]
	if !ok {
		b.mu.Unlock()
		return true
	}
	now := b.cfg.Now()
	probing := b.maybeHalfOpenLocked(br, now)
	allowed := br.state != StateOpen
	b.mu.Unlock()
	if probing {
		b.transition(ap, StateOpen, StateHalfOpen, "")
	}
	return allowed
}

// State returns ap's current breaker state (applying any due cooldown
// transition). Safe on a nil receiver (closed).
func (b *BreakerSet) State(ap int) State {
	if b == nil {
		return StateClosed
	}
	b.mu.Lock()
	br, ok := b.aps[ap]
	if !ok {
		b.mu.Unlock()
		return StateClosed
	}
	probing := b.maybeHalfOpenLocked(br, b.cfg.Now())
	st := br.state
	b.mu.Unlock()
	if probing {
		b.transition(ap, StateOpen, StateHalfOpen, "")
	}
	return st
}

// Failure records a failure event for ap. In the closed state enough
// failures within the window trip the breaker; in half-open a hard
// failure (non-finite CSI, reconnect churn) reopens immediately. Drift
// breaches are ignored during probation: the drift baselines themselves
// go stale while an AP sits quarantined, so they breach spuriously as it
// re-learns — probation is judged on probe scores instead. Safe on a nil
// receiver.
func (b *BreakerSet) Failure(ap int, kind FailureKind) {
	if b == nil {
		return
	}
	b.mu.Lock()
	br, fresh := b.forLocked(ap)
	now := b.cfg.Now()
	probing := b.maybeHalfOpenLocked(br, now)
	var from, to State
	fired := false
	switch br.state {
	case StateClosed:
		if br.fails.add(now.UnixNano(), b.cfg.Window.Nanoseconds()) {
			from, to = br.state, StateOpen
			fired = true
			b.openLocked(br, now)
		}
	case StateHalfOpen:
		if kind != FailDrift {
			br.cooldown = min(2*br.cooldown, b.cfg.MaxCooldown)
			from, to = br.state, StateOpen
			fired = true
			b.openLocked(br, now)
		}
	case StateOpen:
		// Already quarantined; nothing to escalate.
	}
	b.mu.Unlock()
	if fresh {
		b.registerGauge(ap)
	}
	if probing {
		b.transition(ap, StateOpen, StateHalfOpen, "")
	}
	if fired {
		b.transition(ap, from, to, kind)
	}
}

// openLocked trips br at now.
func (b *BreakerSet) openLocked(br *breaker, now time.Time) {
	br.state = StateOpen
	br.openedAt = now
	br.successes = 0
	br.trips++
	br.fails.reset()
}

// ObserveScore feeds one per-burst quality score for ap. Closed: a score
// below UnhealthyBelow counts as a failure. Half-open: a score at or
// above HealthyAbove is a successful probe (Probes of them close the
// breaker and reset the cooldown backoff); below UnhealthyBelow reopens.
// Non-finite scores are ignored. Safe on a nil receiver.
func (b *BreakerSet) ObserveScore(ap int, score float64) {
	if b == nil || math.IsNaN(score) || math.IsInf(score, 0) {
		return
	}
	if score < b.cfg.UnhealthyBelow {
		b.Failure(ap, FailUnhealthy)
		return
	}
	b.mu.Lock()
	br, ok := b.aps[ap]
	if !ok {
		b.mu.Unlock()
		return
	}
	probing := b.maybeHalfOpenLocked(br, b.cfg.Now())
	closedNow := false
	if br.state == StateHalfOpen && score >= b.cfg.HealthyAbove {
		br.successes++
		if br.successes >= b.cfg.Probes {
			br.state = StateClosed
			br.cooldown = b.cfg.Cooldown
			br.fails.reset()
			closedNow = true
		}
	}
	b.mu.Unlock()
	if probing {
		b.transition(ap, StateOpen, StateHalfOpen, "")
	}
	if closedNow {
		b.transition(ap, StateHalfOpen, StateClosed, "")
	}
}

// APConnected implements the server event sink: the first connection of
// an AP is normal startup; every subsequent one is churn and counts as a
// failure. Safe on a nil receiver.
func (b *BreakerSet) APConnected(ap int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	br, fresh := b.forLocked(ap)
	first := !br.connected
	br.connected = true
	b.mu.Unlock()
	if fresh {
		b.registerGauge(ap)
	}
	if !first {
		b.Failure(ap, FailReconnect)
	}
}

// NonFiniteCSI implements the server event sink: the AP streamed a
// non-finite CSI report. Safe on a nil receiver.
func (b *BreakerSet) NonFiniteCSI(ap int) { b.Failure(ap, FailNonFinite) }

// Snapshot returns every tracked AP's breaker state, sorted by AP ID.
func (b *BreakerSet) Snapshot() []APBreaker {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	now := b.cfg.Now()
	out := make([]APBreaker, 0, len(b.aps))
	for ap, br := range b.aps {
		b.maybeHalfOpenLocked(br, now)
		out = append(out, APBreaker{AP: ap, State: br.state.String(), Trips: br.trips})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].AP < out[j].AP })
	return out
}

// transition invokes the configured observer.
func (b *BreakerSet) transition(ap int, from, to State, kind FailureKind) {
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(ap, from, to, kind)
	}
}
