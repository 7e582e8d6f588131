package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"

	"spotfi"
	"spotfi/internal/csi"
	"spotfi/internal/testbed"
)

// target is one closed-loop input: the per-AP bursts of one target and
// its ground-truth position.
type target struct {
	scene  int
	index  int
	truth  spotfi.Point
	bursts map[int][]*csi.Packet
}

// closedScene is one testbed deployment with the localizer that serves it.
type closedScene struct {
	dep *testbed.Deployment
	aps []spotfi.AP
	cfg spotfi.Config
	loc *spotfi.Localizer
}

// closedInputs is everything a closed-loop workload runs on.
type closedInputs struct {
	scenes  []closedScene
	targets []target
	// rung is the ladder index whose localizer serves the workload.
	rung int
}

// packetsPerBurst is the burst length of every closed-loop target, per AP.
const packetsPerBurst = 10

// deploymentSeeds derives the seeds of the deployments a closed-loop run
// pools. Pooling several independently seeded deployments gives each run
// enough targets that its error median is steady across seeds.
func deploymentSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*7919 + int64(i)*104729 + 1
	}
	return out
}

// buildClosed synthesizes a closed-loop workload's targets and builds the
// localizer of its rung for every deployment.
func buildClosed(w *workload, seed int64, pm *spotfi.PipelineMetrics) (*closedInputs, error) {
	in := &closedInputs{rung: w.rung}
	for si, ds := range deploymentSeeds(seed, w.scenes) {
		dep := w.deployment(ds)
		aps := make([]spotfi.AP, len(dep.APs))
		for i, ap := range dep.APs {
			aps[i] = spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
		}
		cfg := spotfi.DefaultConfig(dep.Bounds)
		cfg.Metrics = pm
		ladder, err := spotfi.BuildLadder(cfg, aps, w.rung+1)
		if err != nil {
			return nil, fmt.Errorf("build %s ladder: %w", w.name, err)
		}
		in.scenes = append(in.scenes, closedScene{dep: dep, aps: aps, cfg: cfg, loc: ladder[w.rung]})
		for t := range dep.Targets {
			bursts := make(map[int][]*csi.Packet, len(dep.APs))
			for a := range dep.APs {
				b, err := dep.Burst(a, t, packetsPerBurst)
				if err != nil {
					return nil, fmt.Errorf("%s target %d AP %d: %w", w.name, t, a, err)
				}
				bursts[dep.APs[a].ID] = b
			}
			in.targets = append(in.targets, target{scene: si, index: t, truth: dep.Targets[t], bursts: bursts})
		}
	}
	return in, nil
}

// hash digests the inputs the program receives: every packet of every
// burst and the ground truth it is scored against.
func (in *closedInputs) hash() string {
	h := newHash()
	for _, t := range in.targets {
		putFloat(h, t.truth.X)
		putFloat(h, t.truth.Y)
		for _, id := range sortedKeys(t.bursts) {
			for _, p := range t.bursts[id] {
				hashPacket(h, p)
			}
		}
	}
	return sumHex(h)
}

func newHash() hash.Hash { return sha256.New() }

func sumHex(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

func hashPacket(h hash.Hash, p *csi.Packet) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(p.APID))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], p.Seq)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(p.TimestampNs))
	h.Write(b[:])
	putFloat(h, p.RSSIdBm)
	h.Write([]byte(p.TargetMAC))
	for _, row := range p.CSI.Values {
		for _, v := range row {
			putFloat(h, real(v))
			putFloat(h, imag(v))
		}
	}
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// sortedKeys returns a burst map's AP IDs in ascending order.
func sortedKeys(m map[int][]*csi.Packet) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
