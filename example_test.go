package spotfi_test

import (
	"fmt"
	"log"

	"spotfi"

	"spotfi/internal/testbed"
)

// ExampleLocalizer shows the full pipeline on simulated CSI: register the
// AP poses, feed one burst of packets per AP, read back the location.
func ExampleLocalizer() {
	deployment := testbed.Office(42)
	aps := make([]spotfi.AP, len(deployment.APs))
	for i, ap := range deployment.APs {
		aps[i] = spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	loc, err := spotfi.New(spotfi.DefaultConfig(deployment.Bounds), aps)
	if err != nil {
		log.Fatal(err)
	}

	bursts := make(map[int][]*spotfi.Packet)
	for apIdx := range deployment.APs {
		burst, err := deployment.Burst(apIdx, 4, 10)
		if err != nil {
			continue
		}
		bursts[apIdx] = burst
	}
	estimate, reports, _, err := loc.LocalizeBursts(bursts)
	if err != nil {
		log.Fatal(err)
	}
	truth := deployment.Targets[4]
	fmt.Printf("APs used: %d\n", len(reports))
	fmt.Printf("error under half a meter: %v\n", estimate.Dist(truth) < 0.5)
	// Output:
	// APs used: 6
	// error under half a meter: true
}

// ExampleLocalizer_processBurst runs only stages 1–2: per-AP multipath
// estimation and direct-path identification.
func ExampleLocalizer_processBurst() {
	deployment := testbed.Office(42)
	aps := make([]spotfi.AP, len(deployment.APs))
	for i, ap := range deployment.APs {
		aps[i] = spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	loc, err := spotfi.New(spotfi.DefaultConfig(deployment.Bounds), aps)
	if err != nil {
		log.Fatal(err)
	}
	burst, err := deployment.Burst(0, 4, 10)
	if err != nil {
		log.Fatal(err)
	}
	report, err := loc.ProcessBurstTraced(0, burst, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("packets processed: %d\n", report.Packets)
	fmt.Printf("have candidates: %v\n", len(report.Candidates) > 0)
	fmt.Printf("likelihood positive: %v\n", report.Likelihood > 0)
	// Output:
	// packets processed: 10
	// have candidates: true
	// likelihood positive: true
}
