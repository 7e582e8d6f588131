package quality

import (
	"math"
	"sort"
	"time"
)

// Drift-tracked observables, per AP. Each one has an EWMA baseline and an
// EWMA variance; a burst whose value sits further than ZThreshold standard
// deviations from the baseline is a breach.
const (
	// MetricAoAResid is the AP's AoA residual against the fused location
	// (radians) — jitter and systematic miscalibration both land here.
	MetricAoAResid = "aoa_resid_rad"
	// MetricSTOSlope is the burst-mean sanitization slope (ns) — the
	// Algorithm 1 fit whose drift marks a clock or cabling change.
	MetricSTOSlope = "sto_slope_ns"
	// MetricMargin is the top-two Eq. 8 likelihood margin — a collapsing
	// margin means the direct path is no longer separable.
	MetricMargin = "margin"
)

// DriftMetrics returns the tracked observable names in canonical order.
func DriftMetrics() []string {
	return []string{MetricAoAResid, MetricSTOSlope, MetricMargin}
}

// Drift-detector constants.
const (
	// driftAlpha is the EWMA smoothing factor for baselines and variances
	// (0 < driftAlpha ≤ 1; smaller is smoother).
	driftAlpha = 0.15
	// driftZThreshold is the |z|-score beyond which an observation
	// breaches its baseline.
	driftZThreshold = 4
	// driftWarmup is how many bursts per AP only feed the baselines before
	// breach detection arms. Baselines learned from one or two bursts have
	// meaningless variances.
	driftWarmup = 5
	// healthAlpha smooths the per-AP health score (EWMA over the per-AP
	// confidence and the breach rate).
	healthAlpha = 0.2
)

// driftMinSigma floors the baseline standard deviation of each metric so a
// near-constant observable (variance → 0) does not turn numeric noise into
// breaches.
func driftMinSigma(metric string) float64 {
	switch metric {
	case MetricAoAResid:
		return 0.01 // ~0.6°
	case MetricSTOSlope:
		return 1 // 1 ns
	case MetricMargin:
		return 0.02
	}
	return 0
}

// ewma is an exponentially-weighted mean/variance pair.
type ewma struct {
	mean, varv float64
	n          int
}

// observe folds x in and returns the z-score of x against the baseline as
// it stood before this observation (0 until two points exist).
func (e *ewma) observe(x, alpha, minSigma float64) float64 {
	z := 0.0
	if e.n >= 2 {
		sigma := math.Sqrt(e.varv)
		if sigma < minSigma {
			sigma = minSigma
		}
		if sigma > 0 {
			z = (x - e.mean) / sigma
		}
	}
	if e.n == 0 {
		e.mean = x
	} else {
		diff := x - e.mean
		incr := alpha * diff
		e.mean += incr
		e.varv = (1 - alpha) * (e.varv + diff*incr)
	}
	e.n++
	return z
}

// apState is the drift state of one AP.
type apState struct {
	baselines map[string]*ewma
	breaches  map[string]uint64
	lastZ     map[string]float64
	bursts    int
	scoreEWMA float64 // EWMA of the per-AP confidence score
	breachEW  float64 // EWMA of the per-burst breached-metric fraction
	lastSeen  time.Time
}

// driftDetector tracks per-AP baselines. Not safe for concurrent use; the
// Monitor serializes access under its mutex.
type driftDetector struct {
	aps map[int]*apState
}

func newDriftDetector() *driftDetector {
	return &driftDetector{aps: make(map[int]*apState)}
}

// observe folds one AP's burst observables in and returns how many of the
// tracked metrics breached their baselines.
func (d *driftDetector) observe(ap APScore, now time.Time) int {
	st := d.aps[ap.APID]
	if st == nil {
		st = &apState{
			baselines: make(map[string]*ewma, 3),
			breaches:  make(map[string]uint64, 3),
			lastZ:     make(map[string]float64, 3),
			scoreEWMA: ap.Score,
		}
		d.aps[ap.APID] = st
	}
	st.bursts++
	st.lastSeen = now

	obs := map[string]float64{
		MetricAoAResid: math.Abs(ap.Inputs.AoAResidRad),
		MetricSTOSlope: ap.Inputs.STOMeanNs,
		MetricMargin:   ap.Inputs.Margin,
	}
	breached := 0
	armed := st.bursts > driftWarmup
	for name, x := range obs {
		if math.IsNaN(x) {
			continue
		}
		e := st.baselines[name]
		if e == nil {
			e = &ewma{}
			st.baselines[name] = e
		}
		z := e.observe(x, driftAlpha, driftMinSigma(name))
		st.lastZ[name] = z
		if armed && math.Abs(z) > driftZThreshold {
			st.breaches[name]++
			breached++
		}
	}

	// Health folds the absolute per-AP confidence (a chronically
	// miscalibrated AP scores low from burst one, with or without
	// baseline breaches) with the breach rate (a healthy-looking AP that
	// suddenly drifts breaches before its score EWMA catches up).
	st.scoreEWMA += healthAlpha * (ap.Score - st.scoreEWMA)
	frac := float64(breached) / float64(len(obs))
	st.breachEW += healthAlpha * (frac - st.breachEW)
	return breached
}

// health returns the [0,1] health of ap (1 when the AP is unknown: an AP
// that has not contributed yet is presumed healthy, not failed — staleness
// is the readiness probe's business).
func (d *driftDetector) health(apID int) float64 {
	st := d.aps[apID]
	if st == nil {
		return 1
	}
	return clamp01(st.scoreEWMA * (1 - st.breachEW))
}

// MetricState is one tracked observable's baseline snapshot.
type MetricState struct {
	// Mean and Sigma are the EWMA baseline and standard deviation.
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
	// LastZ is the z-score of the most recent observation.
	LastZ float64 `json:"last_z"`
	// Breaches counts observations beyond the z threshold since start.
	Breaches uint64 `json:"breaches"`
}

// APHealth is the scoreboard row for one AP.
type APHealth struct {
	APID int `json:"ap"`
	// Health ∈ [0,1]: the EWMA per-AP confidence discounted by the
	// baseline-breach rate. Exported as spotfi_ap_health{ap=…}.
	Health float64 `json:"health"`
	// Score is the EWMA of the AP's per-burst confidence contribution.
	Score float64 `json:"score"`
	// Bursts is how many bursts this AP has contributed to.
	Bursts int `json:"bursts"`
	// Warmed reports whether breach detection is armed for this AP.
	Warmed bool `json:"warmed"`
	// Metrics holds the drift baselines keyed by observable name.
	Metrics map[string]MetricState `json:"metrics"`
	// LastSeen is when the AP last contributed to a burst.
	LastSeen time.Time `json:"last_seen"`
}

// snapshot renders the detector state, sorted by AP ID.
func (d *driftDetector) snapshot() []APHealth {
	out := make([]APHealth, 0, len(d.aps))
	for id, st := range d.aps {
		h := APHealth{
			APID:     id,
			Health:   d.health(id),
			Score:    st.scoreEWMA,
			Bursts:   st.bursts,
			Warmed:   st.bursts > driftWarmup,
			Metrics:  make(map[string]MetricState, len(st.baselines)),
			LastSeen: st.lastSeen,
		}
		for name, e := range st.baselines {
			h.Metrics[name] = MetricState{
				Mean:     e.mean,
				Sigma:    math.Sqrt(math.Max(e.varv, 0)),
				LastZ:    st.lastZ[name],
				Breaches: st.breaches[name],
			}
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].APID < out[j].APID })
	return out
}
