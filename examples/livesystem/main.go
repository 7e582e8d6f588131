// Live system: the full deployed architecture of Fig. 1 in one process.
//
// A central server listens on localhost TCP; six AP agents connect and
// stream simulated CSI reports for one target over the wire protocol; the
// server assembles bursts and localizes. The server is the serving graph
// cmd/spotfi-server runs (internal/service), and the agents are what
// cmd/spotfi-ap runs, here in one process.
//
//	go run ./examples/livesystem
package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sync"
	"time"

	"spotfi"
	"spotfi/internal/apnode"
	"spotfi/internal/service"
	"spotfi/internal/sim"
	"spotfi/internal/testbed"
)

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	d := testbed.Office(42)
	const targetIdx = 4
	const packetsPerAP = 30

	// The server localizes every time each of ≥5 APs has 10 fresh packets.
	cfg := service.DefaultConfig()
	cfg.Pipeline = spotfi.DefaultConfig(d.Bounds)
	for _, ap := range d.APs {
		cfg.APs = append(cfg.APs, spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle})
	}
	cfg.Listen = "127.0.0.1:0"
	cfg.Collector.MinAPs = 5
	cfg.Logger = logger
	svc, err := service.New(cfg)
	if err != nil {
		logger.Error("server init failed", "err", err)
		os.Exit(1)
	}
	fixes, err := svc.Feed.Subscribe()
	if err != nil {
		logger.Error("fix feed subscribe failed", "err", err)
		os.Exit(1)
	}
	addr, err := svc.Start()
	if err != nil {
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	}
	defer svc.Drain()
	logger.Info("server listening", "addr", addr.String())

	// Six AP agents stream CSI over real TCP connections.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for apIdx := range d.APs {
		link := d.Link(apIdx, targetIdx)
		syn, err := sim.NewSynthesizer(link, d.Band, d.Array, d.Imp,
			rand.New(rand.NewSource(int64(100+apIdx))))
		if err != nil {
			logger.Warn("AP cannot hear the target", "ap", apIdx, "err", err)
			continue
		}
		agent := &apnode.Agent{
			APID:       apIdx,
			ServerAddr: addr.String(),
			Source: &apnode.SynthSource{
				Syn:       syn,
				TargetMAC: testbed.TargetMAC(targetIdx),
				Limit:     packetsPerAP,
			},
			Interval: 5 * time.Millisecond,
		}
		wg.Add(1)
		//lint:allow gospawn example harness: one WaitGroup-joined agent per simulated AP
		go func(id int) {
			defer wg.Done()
			if err := agent.Run(ctx); err != nil {
				logger.Warn("agent exited", "ap", id, "err", err)
			}
		}(apIdx)
	}
	wg.Wait()

	// Agents are done sending, but the server may still be assembling and
	// localizing the final bursts — drain the expected fixes with a
	// deadline instead of racing the handler.
	truth := d.Targets[targetIdx]
	wantFixes := packetsPerAP / 10 // one fix per 10-packet batch
	var n int
	var sumErr float64
	deadline := time.After(20 * time.Second)
drain:
	for n < wantFixes {
		select {
		case fx := <-fixes.Fixes():
			n++
			sumErr += spotfi.Point{X: fx.X, Y: fx.Y}.Dist(truth)
		case <-deadline:
			break drain
		}
	}
	if n == 0 {
		logger.Error("no fixes produced")
		os.Exit(1)
	}
	fmt.Printf("\nground truth (%.2f, %.2f) m; %d fixes, mean error %.2f m\n",
		truth.X, truth.Y, n, sumErr/float64(n))
}
