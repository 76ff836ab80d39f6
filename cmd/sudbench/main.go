// Command sudbench regenerates the paper's evaluation artifacts:
//
//	sudbench -experiment fig5      # Figure 5: lines of code per component
//	sudbench -experiment fig8      # Figure 8: netperf table, kernel vs SUD
//	sudbench -experiment fig9      # Figure 9: e1000e IO virtual memory map
//	sudbench -experiment security  # §5.2 attack matrix
//	sudbench -experiment multiflow # multi-queue scale scenario (beyond paper)
//	sudbench -experiment blk       # block IOPS scale scenario (beyond paper)
//	sudbench -experiment latency   # per-queue p50/p99 latency artifact
//	sudbench -experiment all       # everything
//
// --trace FILE enables the span recorder for the multiflow and blk
// experiments and writes every recorded hop as Chrome trace-event JSON
// (load in chrome://tracing or Perfetto, or summarize with sudtrace).
// Tracing runs in virtual time, so two same-seed runs produce
// byte-identical trace files:
//
//	sudbench -experiment blk --trace trace.json && sudtrace trace.json
//
// The latency experiment reruns the SUD rx and blk scale scenarios and
// emits the per-queue end-to-end latency percentiles (BENCH_latency.json,
// gated by benchgate like the throughput artifacts):
//
//	sudbench -experiment latency --json BENCH_latency.json
//
// The multiflow experiment takes --queues (uchan ring pairs / e1000e TX+RX
// queues), --flows (concurrent UDP flows, spread over the e1000e and
// ne2k-pci driver processes), --direction (tx, rx or bidi) and --json (write
// the result rows to a file for the perf-trajectory record):
//
//	sudbench -experiment multiflow --queues 4 --flows 6 --direction rx --json BENCH_rx.json
//
// The blk experiment runs 4 KiB random reads against the NVMe-lite
// controller driven by the untrusted nvmed process; --queues is the I/O
// queue-pair fan-out, --jobs × --depth the offered load:
//
//	sudbench -experiment blk --queues 4 --jobs 16 --depth 6 --json BENCH_blk.json
//
// Both scale experiments take --guard to ablate the §3.1.2 TOCTOU guard:
// "fused" (the default checksum-fused copy; plain copy on the block path),
// "separate" (copy then checksum, the strategy the paper rejects) or
// "pageflip" (the zero-copy fast path: page ownership transfer with
// batch-amortised revocation and staged device doorbells):
//
//	sudbench -experiment blk --guard pageflip --queues 4 --json BENCH_blkflip.json
//
// The tenant experiment runs the sharded KV service over the unified
// queue-aware kernel API: --tenants simulated tenants × --conns closed-loop
// connections each, one tenant per driver queue end to end, measured under
// the trusted baseline and under SUD, then the three in-run NoisyNeighbor
// legs (wedged ring, breached sub-domain, durability lie). The JSON rows
// carry per-tenant p50/p99/goodput plus the noisy-leg verdicts, and
// benchgate enforces both the bands and the convictions (BENCH_tenant.json):
//
//	sudbench -experiment tenant --tenants 4 --conns 4 --json BENCH_tenant.json
//
// An unknown -experiment name exits 2 and lists the valid ones.
//
// Measurements run in deterministic virtual time; bench/perf/README.md
// describes the end-to-end benchmark and what each of its metrics measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"sud/internal/attack"
	"sud/internal/diskperf"
	"sud/internal/hw"
	"sud/internal/netperf"
	"sud/internal/proxy/ethproxy"
	"sud/internal/report"
	"sud/internal/sim"
	"sud/internal/tenantperf"
	"sud/internal/trace"
)

// experiments lists every -experiment name in the order "all" runs them.
var experiments = []string{"fig5", "fig8", "fig9", "multiflow", "blk", "latency", "tenant", "security"}

// checkExperiment rejects a name that would run nothing, so a typo fails
// loudly instead of printing nothing and exiting 0.
func checkExperiment(name string) error {
	if name == "all" || slices.Contains(experiments, name) {
		return nil
	}
	return fmt.Errorf("unknown -experiment %q (valid: %s, all)", name, strings.Join(experiments, ", "))
}

func main() {
	exp := flag.String("experiment", "all", strings.Join(experiments, " | ")+" | all")
	window := flag.Int("window-ms", 200, "measurement window (virtual milliseconds)")
	queues := flag.Int("queues", 4, "multiflow/blk: uchan ring pairs / hardware queues")
	flows := flag.Int("flows", 6, "multiflow: concurrent UDP flows")
	direction := flag.String("direction", "tx", "multiflow: tx | rx | bidi")
	jobs := flag.Int("jobs", 16, "blk: concurrent I/O jobs")
	depth := flag.Int("depth", 6, "blk: outstanding reads per job")
	fsyncEvery := flag.Int("fsync-every", 0,
		"blk: run the WRITE workload against a volatile-write-cache device, issuing a flush barrier every N acked writes per job (fio fsync=N); also records a never-flushing reference row")
	cacheBlocks := flag.Int("cache-blocks", 64, "blk: volatile write cache capacity for --fsync-every runs")
	tenants := flag.Int("tenants", 4, "tenant: simulated tenants (one per driver queue)")
	conns := flag.Int("conns", 4, "tenant: closed-loop connections per tenant")
	killAfter := flag.Duration("kill-after", 0,
		"blk: kill the supervised nvmed process this far into the run and measure shadow recovery (e.g. 50ms)")
	failover := flag.Bool("failover", false,
		"blk: with -kill-after, arm a hot standby before the run so the kill is recovered by standby promotion instead of a cold respawn (BENCH_failover.json)")
	breachAfter := flag.Duration("breach-after", 0,
		"blk: make one queue's DMA sub-domain fault this far into the run and measure the surgical single-queue recovery — sibling throughput must stay in band (BENCH_qrecovery.json)")
	guardMode := flag.String("guard", "fused",
		"multiflow/blk: TOCTOU-guard ablation — fused | separate | pageflip")
	jsonPath := flag.String("json", "", "multiflow/blk/latency: also write result rows as JSON to this file")
	tracePath := flag.String("trace", "",
		"multiflow/blk: enable the span recorder and write the hops as Chrome trace-event JSON to this file")
	flag.Parse()
	if err := checkExperiment(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "sudbench: %v\n", err)
		os.Exit(2)
	}

	// Span collection for --trace: each traced testbed's machine records
	// into its own ring; the runs execute sequentially, so appending in run
	// order keeps the file deterministic. Each machine gets its own run id
	// (Chrome pid) — tags and virtual times recur across machines, so
	// merging without it would splice unrelated spans together.
	var spans []trace.Event
	var spansDropped uint64
	runID := 0
	traceOn := func(m *hw.Machine) {
		if *tracePath != "" {
			m.Trace.Enable()
		}
	}
	traceOff := func(m *hw.Machine) {
		if *tracePath != "" {
			for _, ev := range m.Trace.Events() {
				ev.Run = runID
				spans = append(spans, ev)
			}
			spansDropped += m.Trace.Dropped()
			m.Trace.Disable()
			runID++
		}
	}

	run := func(name string, f func() error) {
		switch *exp {
		case "all", name:
			if err := f(); err != nil {
				fmt.Fprintf(os.Stderr, "sudbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}

	run("fig5", func() error {
		root, err := report.ModuleRoot(".")
		if err != nil {
			return err
		}
		comps, err := report.RunFig5(root)
		if err != nil {
			return err
		}
		fmt.Print(report.FormatFig5(comps))
		return nil
	})

	run("fig8", func() error {
		opt := netperf.DefaultOptions()
		opt.Window = sim.Duration(*window) * sim.Millisecond
		rows, err := report.RunFig8(hw.DefaultPlatform(), opt)
		if err != nil {
			return err
		}
		fmt.Print(report.FormatFig8(rows))
		return nil
	})

	run("fig9", func() error {
		entries, err := report.RunFig9(hw.DefaultPlatform())
		if err != nil {
			return err
		}
		fmt.Print(report.FormatFig9(entries))
		return nil
	})

	run("multiflow", func() error {
		opt := netperf.DefaultOptions()
		opt.Window = sim.Duration(*window) * sim.Millisecond
		var dir netperf.Direction
		switch *direction {
		case "tx":
			dir = netperf.DirTX
		case "rx":
			dir = netperf.DirRX
		case "bidi":
			dir = netperf.DirBidi
		default:
			return fmt.Errorf("unknown --direction %q (tx | rx | bidi)", *direction)
		}
		target := *queues
		if target < 1 {
			target = 1
		}
		// A single-queue reference row, then the requested fan-out.
		rows := []int{1}
		if target > 1 {
			rows = append(rows, target)
		}
		var results []netperf.MultiFlowResult
		for _, q := range rows {
			var tb *netperf.MultiFlowTestbed
			var err error
			switch *guardMode {
			case "fused":
				tb, err = netperf.NewMultiFlowTestbed(q, hw.DefaultPlatform())
			case "separate":
				tb, err = netperf.NewMultiFlowTestbed(q, hw.DefaultPlatform())
				if err == nil {
					tb.EthProc.Eth.GuardMode = ethproxy.GuardSeparate
				}
			case "pageflip":
				tb, err = netperf.NewMultiFlowTestbedFlip(q, hw.DefaultPlatform())
			default:
				return fmt.Errorf("unknown --guard %q (fused | separate | pageflip)", *guardMode)
			}
			if err != nil {
				return err
			}
			traceOn(tb.M)
			res, err := netperf.MultiFlowDir(tb, *flows, dir, opt)
			traceOff(tb.M)
			if err != nil {
				return err
			}
			fmt.Print(res)
			results = append(results, res)
		}
		if *jsonPath != "" {
			blob, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	})

	run("blk", func() error {
		opt := netperf.DefaultOptions()
		opt.Window = sim.Duration(*window) * sim.Millisecond
		target := *queues
		if target < 1 {
			target = 1
		}
		if *breachAfter > 0 {
			// Surgical-recovery smoke: one queue's sub-domain faults mid-run;
			// the supervisor quarantines, re-arms and replays exactly that
			// queue. Siblings must not notice (BENCH_qrecovery.json).
			tb, err := diskperf.NewSupervisedTestbed(target, hw.DefaultPlatform())
			if err != nil {
				return err
			}
			breach := sim.Duration((*breachAfter).Nanoseconds())
			res, err := diskperf.QueueBreachRecovery(tb, *jobs, *depth, breach, 0)
			if err != nil {
				return err
			}
			fmt.Print(res)
			if res.Errors != 0 {
				return fmt.Errorf("surgical recovery surfaced %d application-visible errors", res.Errors)
			}
			if res.QueueRecoveries == 0 {
				return fmt.Errorf("breach was never answered by a surgical recovery")
			}
			if res.Restarts != 0 {
				return fmt.Errorf("surgical recovery escalated to %d process restarts", res.Restarts)
			}
			if *jsonPath != "" {
				blob, err := json.MarshalIndent([]diskperf.QueueRecoveryResult{res}, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *jsonPath)
			}
			return nil
		}
		if *killAfter > 0 {
			// Recovery smoke: kill the supervised driver mid-run; record
			// replayed requests and recovery latency (BENCH_recovery.json).
			// With -failover a hot standby is armed first, so the kill is
			// served by promotion (BENCH_failover.json).
			var tb *diskperf.Testbed
			var err error
			if *failover {
				tb, err = diskperf.NewFailoverTestbed(target, hw.DefaultPlatform())
			} else {
				tb, err = diskperf.NewSupervisedTestbed(target, hw.DefaultPlatform())
			}
			if err != nil {
				return err
			}
			kill := sim.Duration((*killAfter).Nanoseconds())
			res, err := diskperf.KillRecovery(tb, *jobs, *depth, kill, kill+100*sim.Millisecond)
			if err != nil {
				return err
			}
			fmt.Print(res)
			if res.Errors != 0 {
				return fmt.Errorf("recovery surfaced %d application-visible errors", res.Errors)
			}
			if *failover && res.Failovers == 0 {
				return fmt.Errorf("standby was armed but the kill was recovered by cold respawn")
			}
			if *jsonPath != "" {
				blob, err := json.MarshalIndent([]diskperf.RecoveryResult{res}, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *jsonPath)
			}
			return nil
		}
		if *fsyncEvery > 0 {
			// Flush-bounded write IOPS (BENCH_flush.json): the same SUD
			// testbed with a volatile write cache, once at cache speed
			// (never flushing) and once fsync-bounded — the gap is the
			// price of durability through the whole untrusted path.
			var results []diskperf.Result
			for _, fs := range []int{0, *fsyncEvery} {
				tb, err := diskperf.NewTestbedWC(diskperf.ModeSUD, target, *cacheBlocks, hw.DefaultPlatform())
				if err != nil {
					return err
				}
				res, err := diskperf.BlockIOPSWrite(tb, *jobs, *depth, fs, opt)
				if err != nil {
					return err
				}
				fmt.Print(res)
				results = append(results, res)
			}
			if *jsonPath != "" {
				blob, err := json.MarshalIndent(results, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *jsonPath)
			}
			return nil
		}
		// A trusted-baseline row, a single-queue SUD reference row, then
		// the requested fan-out.
		type row struct {
			mode diskperf.Mode
			q    int
		}
		rows := []row{{diskperf.ModeKernel, 1}, {diskperf.ModeSUD, 1}}
		if target > 1 {
			rows = append(rows, row{diskperf.ModeSUD, target})
		}
		var results []diskperf.Result
		for _, r := range rows {
			var tb *diskperf.Testbed
			var err error
			switch *guardMode {
			case "fused", "separate":
				// The block path has no checksum to fuse with: both copy
				// strategies are the same plain guard copy.
				tb, err = diskperf.NewTestbed(r.mode, r.q, hw.DefaultPlatform())
			case "pageflip":
				if r.mode == diskperf.ModeSUD {
					tb, err = diskperf.NewTestbedFlip(r.mode, r.q, hw.DefaultPlatform())
				} else {
					// The trusted baseline has no guard to flip away.
					tb, err = diskperf.NewTestbed(r.mode, r.q, hw.DefaultPlatform())
				}
			default:
				return fmt.Errorf("unknown --guard %q (fused | separate | pageflip)", *guardMode)
			}
			if err != nil {
				return err
			}
			traceOn(tb.M)
			res, err := diskperf.BlockIOPS(tb, *jobs, *depth, opt)
			traceOff(tb.M)
			if err != nil {
				return err
			}
			fmt.Print(res)
			results = append(results, res)
		}
		if *jsonPath != "" {
			blob, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	})

	run("latency", func() error {
		opt := netperf.DefaultOptions()
		opt.Window = sim.Duration(*window) * sim.Millisecond
		rows, err := report.RunLatency(hw.DefaultPlatform(), *queues, *flows, *queues, *jobs, *depth, opt)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Print(r)
		}
		if *jsonPath != "" {
			blob, err := json.MarshalIndent(rows, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	})

	run("tenant", func() error {
		// Kernel baseline first, then SUD; the NoisyNeighbor legs run
		// against fresh SUD testbeds and ride on the SUD row.
		var results []tenantperf.Result
		for _, mode := range []tenantperf.Mode{tenantperf.ModeKernel, tenantperf.ModeSUD} {
			tb, err := tenantperf.NewTestbed(tenantperf.Config{
				Mode: mode, Tenants: *tenants, Conns: *conns, Queues: *queues,
			})
			if err != nil {
				return err
			}
			res, err := tenantperf.Run(tb, tenantperf.DefaultOptions())
			if err != nil {
				return err
			}
			if mode == tenantperf.ModeSUD {
				legs, err := attack.RunNoisyLegs(hw.DefaultPlatform())
				if err != nil {
					return err
				}
				res.Noisy = legs
			}
			fmt.Print(res)
			results = append(results, res)
		}
		if *jsonPath != "" {
			blob, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	})

	run("security", func() error {
		outcomes, err := report.RunSecurity()
		if err != nil {
			return err
		}
		fmt.Print(report.FormatSecurity(outcomes))
		fmt.Println()
		fmt.Print(report.SecuritySummary(outcomes))
		return nil
	})

	if *tracePath != "" {
		if len(spans) == 0 {
			fmt.Fprintf(os.Stderr, "sudbench: --trace recorded no spans (only multiflow and blk are traced)\n")
			os.Exit(1)
		}
		if err := os.WriteFile(*tracePath, trace.ChromeJSON(spans, spansDropped), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sudbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d span events)\n", *tracePath, len(spans))
	}
}
