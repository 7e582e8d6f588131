package spotfi

import (
	"math"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/testbed"
)

func officeLocalizer(t *testing.T, mutate func(*Config)) (*testbed.Deployment, *Localizer) {
	t.Helper()
	d := testbed.Office(11)
	cfg := DefaultConfig(d.Bounds)
	cfg.Workers = 2
	if mutate != nil {
		mutate(&cfg)
	}
	loc, err := New(cfg, deploymentAPs(d))
	if err != nil {
		t.Fatal(err)
	}
	return d, loc
}

func TestLocateRejectsUnknownAPReport(t *testing.T) {
	_, loc := officeLocalizer(t, nil)
	reports := []*APReport{
		{APID: 0, AoA: 0, Likelihood: 1, MeanRSSIdBm: -50},
		{APID: 99, AoA: 0, Likelihood: 1, MeanRSSIdBm: -50},
	}
	if _, err := loc.locateFull(reports, nil); err == nil {
		t.Fatal("unknown AP in report accepted")
	}
}

func TestLocalizeBurstsTooFewAPs(t *testing.T) {
	d, loc := officeLocalizer(t, nil)
	burst, err := d.Burst(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loc.LocalizeBursts(map[int][]*Packet{0: burst}); err == nil {
		t.Fatal("single-AP localization accepted")
	}
}

func TestLocalizeBurstsSkipsDeadAP(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d, loc := officeLocalizer(t, nil)
	bursts := make(map[int][]*Packet)
	for a := range d.APs {
		burst, err := d.Burst(a, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		bursts[a] = burst
	}
	// Corrupt one AP's entire burst: every CSI matrix becomes NaN, so
	// stage 1 fails for that AP but localization must still succeed.
	for _, p := range bursts[3] {
		p.CSI.Values[0][0] = complex(math.NaN(), 0)
	}
	p, reports, skipped, err := loc.LocalizeBursts(bursts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.APID == 3 {
			t.Fatal("dead AP produced a report")
		}
	}
	// The dead AP must be reported, not silently swallowed.
	if len(skipped) != 1 || skipped[0].APID != 3 || skipped[0].Err == nil {
		t.Fatalf("skipped = %v, want exactly AP 3 with its error", skipped)
	}
	if !d.Bounds.Contains(p.Point) {
		t.Fatalf("estimate %v outside bounds", p)
	}
}

func TestProcessBurstPartialFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d, loc := officeLocalizer(t, nil)
	burst, err := d.Burst(0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Half the packets corrupt: the burst must still be processed.
	for i := 0; i < 3; i++ {
		burst[i].CSI.Values[1][1] = complex(math.Inf(1), 0)
	}
	rep, err := loc.ProcessBurstTraced(0, burst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != 6 {
		t.Fatalf("Packets = %d", rep.Packets)
	}
	ok := 0
	for _, pp := range rep.PerPacket {
		if len(pp) > 0 {
			ok++
		}
	}
	if ok != 3 {
		t.Fatalf("%d packets survived, want 3", ok)
	}
}

func TestProcessBurstAllFailures(t *testing.T) {
	d, loc := officeLocalizer(t, nil)
	burst, err := d.Burst(0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range burst {
		p.CSI.Values[0][0] = complex(math.NaN(), 0)
	}
	if _, err := loc.ProcessBurstTraced(0, burst, nil); err == nil {
		t.Fatal("all-corrupt burst accepted")
	}
}

func TestSanitizeDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d, loc := officeLocalizer(t, func(c *Config) { c.Sanitize = false })
	burst, err := d.Burst(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loc.ProcessBurstTraced(0, burst, nil); err != nil {
		t.Fatalf("unsanitized pipeline failed: %v", err)
	}
}

func TestLocalizerDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d, loc1 := officeLocalizer(t, nil)
	_, loc2 := officeLocalizer(t, nil)
	bursts := make(map[int][]*csi.Packet)
	for a := range d.APs {
		b, err := d.Burst(a, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		bursts[a] = b
	}
	p1, _, _, err := loc1.LocalizeBursts(bursts)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _, err := loc2.LocalizeBursts(bursts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("same input, different estimates: %v vs %v", p1, p2)
	}
}
