package main

import (
	"fmt"
	"math"
	"time"

	"spotfi"
	"spotfi/internal/cmat"
	"spotfi/internal/csi"
	"spotfi/internal/locate"
	"spotfi/internal/music"
	"spotfi/internal/obs/quality"
	"spotfi/internal/obs/trace"
	"spotfi/internal/sanitize"
)

// layers accumulates a traced run's per-layer samples as running means.
type layers struct {
	sum map[string]float64
	n   map[string]float64
}

func newLayers() *layers {
	return &layers{sum: make(map[string]float64), n: make(map[string]float64)}
}

func (l *layers) add(name string, v float64) {
	l.sum[name] += v
	l.n[name]++
}

// addTime adds a duration in microseconds.
func (l *layers) addTime(name string, d time.Duration) {
	l.add(name, float64(d)/1e3)
}

// mean is the mean of name's samples, 0 when the layer never ran.
func (l *layers) mean(name string) float64 {
	if l.n[name] == 0 {
		return 0
	}
	return l.sum[name] / l.n[name]
}

// perLayerNames lists every per-layer metric with its unit, in report
// order. A workload that never calls a layer reports 0 for it.
var perLayerNames = []struct{ name, unit string }{
	{"music.sweep_peaks_us", "us"},
	{"music.cells_per_packet", "count"},
	{"music.dense_fallback_ratio", "ratio"},
	{"music.peaks_per_packet", "count"},
	{"music.smooth_us", "us"},
	{"music.estimate_us", "us"},
	{"cmat.gram_us", "us"},
	{"cmat.eig_us", "us"},
	{"cmat.eig_sweeps", "count"},
	{"music.esprit_us", "us"},
	{"music.fastpath_accept_ratio", "ratio"},
	{"sanitize.us", "us"},
	{"dpath.identify_us", "us"},
	{"dpath.candidates", "count"},
	{"locate.us", "us"},
	{"locate.iters", "count"},
	{"quality.score_us", "us"},
	{"spotfi.localize_ms", "ms"},
	{"spotfi.aps_skipped", "count"},
	{"spotfi.err_m_p90", "m"},
	{"wire.decode_us", "us"},
	{"wire.frames", "count"},
	{"server.add_us", "us"},
	{"server.assembly_ms_p50", "ms"},
	{"server.bursts_emitted", "count"},
	{"server.expired_packets", "count"},
	{"feed.publish_us", "us"},
	{"feed.published", "count"},
	{"admit.sojourn_ms_p50", "ms"},
	{"admit.sojourn_ms_p90", "ms"},
	{"admit.shed_ratio", "ratio"},
	{"admit.shed_codel", "count"},
	{"admit.shed_stale", "count"},
	{"admit.shed_full", "count"},
	{"admit.depth_max", "count"},
	{"admit.mode_full_share", "ratio"},
	{"admit.mode_fastpath_share", "ratio"},
	{"admit.mode_coarse_share", "ratio"},
	{"admit.mode_changes", "count"},
	{"admit.breaker_opens", "count"},
	{"admit.breaker_dropped", "count"},
	{"gen.late_ms_p99", "ms"},
	{"gen.offered", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// perLayerMetrics renders vals into the result map, 0 for any layer the
// workload did not call.
func perLayerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayerNames))
	for _, m := range perLayerNames {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// pipelineLayers folds one traced fix's pipeline spans into l: per-packet
// sanitize and estimate costs and DSP work counts, clustering, the Eq. 9
// solve.
func pipelineLayers(l *layers, td *trace.TraceData) {
	if td == nil {
		return
	}
	// An AP burst attempted the fast path when ESPRIT estimated any of its
	// packets; it was accepted when the AP span says so.
	tried := make(map[int]bool)
	for _, sd := range td.Spans {
		if sd.Name == trace.StageEstimate && sd.Attrs["estimator"] == "esprit" {
			tried[sd.Parent] = true
		}
	}
	for i, sd := range td.Spans {
		d := time.Duration(sd.DurNS)
		switch sd.Name {
		case trace.StageBurst:
			l.add("spotfi.aps_skipped", attrFloat(sd.Attrs, "aps_skipped"))
		case trace.StageAP:
			if tried[i] {
				l.add("fastpath.accepted", attrFloat(sd.Attrs, "fast_path"))
			}
		case trace.StageSanitize:
			l.addTime("sanitize.us", d)
		case trace.StageEstimate:
			if sd.Attrs["estimator"] == "esprit" {
				l.addTime("music.esprit_us", d)
				continue
			}
			l.addTime("music.estimate_us", d)
			l.add("music.cells_per_packet", attrFloat(sd.Attrs, "cells_swept"))
			l.add("music.dense_fallback_ratio", attrFloat(sd.Attrs, "dense_fallback"))
			l.add("music.peaks_per_packet", attrFloat(sd.Attrs, "peaks"))
			l.add("cmat.eig_sweeps", attrFloat(sd.Attrs, "eigen_sweeps"))
		case trace.StageCluster:
			l.addTime("dpath.identify_us", d)
			l.add("dpath.candidates", attrFloat(sd.Attrs, "clusters"))
		case trace.StageLocate:
			l.addTime("locate.us", d)
			l.add("locate.iters", attrFloat(sd.Attrs, "iters"))
		}
	}
}

func attrFloat(attrs map[string]any, key string) float64 {
	switch v := attrs[key].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// estimatorKinds reads which estimator produced each AP's kept report
// from a fix's trace.
func estimatorKinds(td *trace.TraceData) map[int]string {
	kinds := make(map[int]string)
	if td == nil {
		return kinds
	}
	for _, sd := range td.Spans {
		if sd.Name == trace.StageAP {
			if ap, ok := sd.Attrs["ap"].(int64); ok {
				kinds[int(ap)], _ = sd.Attrs["estimator"].(string)
			}
		}
	}
	return kinds
}

// verifier re-derives a fix from its inputs through the layers' public
// functions: every MUSIC-estimated packet is sanitized and estimated
// again and must equal the report bit for bit, and the Eq. 9 solve and
// the confidence score on the reports must reproduce the fix. In a traced
// run it also splits each estimate into smoothing, covariance, eigensolve
// and the sweep plus peak find that remain.
type verifier struct {
	cfg    spotfi.Config
	aps    map[int]spotfi.AP
	est    *music.Estimator
	smooth *cmat.Matrix
	gram   *cmat.Matrix
	eigWS  cmat.TopEigenWorkspace
}

func newVerifier(cfg spotfi.Config, aps []spotfi.AP) (*verifier, error) {
	est, err := music.NewEstimator(cfg.Music)
	if err != nil {
		return nil, err
	}
	m := make(map[int]spotfi.AP, len(aps))
	for _, ap := range aps {
		m[ap.ID] = ap
	}
	return &verifier{cfg: cfg, aps: m, est: est}, nil
}

// fix checks one fix. kinds says which estimator each AP's report came
// from; only MUSIC reports are re-estimated. lay and rec are nil in an
// untraced run.
func (v *verifier) fix(loc spotfi.Location, reports []*spotfi.APReport, kinds map[int]string, bursts map[int][]*csi.Packet,
	viol *violations, lay *layers, rec *recorder, fixID, parent int) {
	for _, rep := range reports {
		if kinds[rep.APID] != spotfi.EstimatorMUSIC.String() {
			continue
		}
		pkts := bursts[rep.APID]
		for i, want := range rep.PerPacket {
			if want == nil || i >= len(pkts) {
				continue
			}
			if err := v.packet(pkts[i], want, lay, rec, fixID, parent); err != nil {
				viol.addf("fix %d AP %d packet %d: %v", fixID, rep.APID, i, err)
			}
		}
	}

	obs := make([]locate.APObservation, 0, len(reports))
	for _, r := range reports {
		ap := v.aps[r.APID]
		obs = append(obs, locate.APObservation{
			Pos: ap.Pos, NormalAngle: ap.NormalAngle,
			AoA: r.AoA, RSSIdBm: r.MeanRSSIdBm, Likelihood: r.Likelihood,
		})
	}
	t0 := time.Now()
	res, err := locate.Locate(obs, v.cfg.Locate)
	rec.add("check.locate", fixID, parent, t0, time.Now())
	if err != nil {
		viol.addf("fix %d: re-solving Eq. 9: %v", fixID, err)
		return
	}
	if !sameFloat(res.Location.X, loc.X) || !sameFloat(res.Location.Y, loc.Y) {
		viol.addf("fix %d: Eq. 9 on the reports gives (%v, %v), fix is (%v, %v)", fixID, res.Location.X, res.Location.Y, loc.X, loc.Y)
	}
	in := quality.BurstInputs{Iters: res.Iters, Objective: res.Objective}
	for i, r := range reports {
		resid := math.NaN()
		if i < len(res.AoAResid) {
			resid = res.AoAResid[i]
		}
		in.APs = append(in.APs, quality.APInputs{
			APID: r.APID, Margin: r.Margin, EigenGapDB: r.EigenGapDB,
			STOMeanNs: r.STOMeanNs, STOJitterNs: r.STOJitterNs,
			AoAResidRad: resid, Likelihood: r.Likelihood, Packets: r.Packets,
		})
	}
	t0 = time.Now()
	sc := quality.ScoreBurst(in, v.cfg.Quality)
	t1 := time.Now()
	rec.add("quality.score", fixID, parent, t0, t1)
	if lay != nil {
		lay.addTime("quality.score_us", t1.Sub(t0))
	}
	if !sameFloat(sc.Overall, loc.Confidence) {
		viol.addf("fix %d: confidence re-scored as %v, fix says %v", fixID, sc.Overall, loc.Confidence)
	}
}

// packet re-runs one packet's sanitization and MUSIC estimate and compares
// the result with the pipeline's.
func (v *verifier) packet(p *csi.Packet, want []music.PathEstimate, lay *layers, rec *recorder, fixID, parent int) error {
	work := p.CSI.Clone()
	if v.cfg.Sanitize {
		if _, err := sanitize.ToF(work, v.cfg.Music.Band.SubcarrierSpacingHz); err != nil {
			return fmt.Errorf("sanitize: %w", err)
		}
	}
	mp := v.cfg.Music
	var tSmooth, tGram, tEig time.Duration
	if lay != nil {
		t0 := time.Now()
		v.smooth = music.SmoothCSIInto(work, mp.SubarrayAntennas, mp.SubarraySubcarriers, v.smooth)
		t1 := time.Now()
		v.gram = cmat.Reshape(v.gram, v.smooth.Rows(), v.smooth.Rows())
		v.smooth.GramInto(v.gram)
		t2 := time.Now()
		if _, err := cmat.TopEigenInto(v.gram, mp.MaxPaths+1, mp.EigenThreshold, &v.eigWS); err != nil {
			return fmt.Errorf("eigensolve: %w", err)
		}
		t3 := time.Now()
		tSmooth, tGram, tEig = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		rec.add("music.smooth", fixID, parent, t0, t1)
		rec.add("cmat.gram", fixID, parent, t1, t2)
		rec.add("cmat.eig", fixID, parent, t2, t3)
	}
	t0 := time.Now()
	got, _, err := v.est.EstimatePathsDiag(work)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	if lay != nil {
		rec.add("music.estimate", fixID, parent, t0, t1)
		lay.addTime("music.smooth_us", tSmooth)
		lay.addTime("cmat.gram_us", tGram)
		lay.addTime("cmat.eig_us", tEig)
		lay.addTime("music.sweep_peaks_us", t1.Sub(t0)-tSmooth-tGram-tEig)
	}
	if len(got) != len(want) {
		return fmt.Errorf("re-estimate found %d paths, report has %d", len(got), len(want))
	}
	for k := range got {
		if !sameFloat(got[k].AoA, want[k].AoA) || !sameFloat(got[k].ToF, want[k].ToF) || !sameFloat(got[k].Power, want[k].Power) {
			return fmt.Errorf("path %d re-estimated as %+v, report has %+v", k, got[k], want[k])
		}
	}
	return nil
}

// sameFloat is bitwise equality (NaN equals NaN).
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// validFix reports whether a fix is finite and inside b.
func validFix(p spotfi.Point, b spotfi.Bounds) bool {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return false
	}
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}
