package attack

import (
	"fmt"

	"sud/internal/drivers/e1000e"
	"sud/internal/mem"
	"sud/internal/netperf"
	"sud/internal/proxy/ethproxy"
	"sud/internal/sim"
	"sud/internal/uchan"
)

// PageSquat is the zero-copy fast path's resource attack: a malicious driver
// tries to abuse the page-flip ownership protocol itself. It (1) dribbles
// slot-0-only references so pages enter the lent set without ever flipping,
// betting the proxy forgets to return partially-covered pages and the pool
// drains; (2) posts a fully-tiled batch to force a flip, then stores through
// its stale mapping of the now-kernel-owned page; and (3) re-doorbells
// references into the flipped page, trying to get the kernel to deliver from
// memory it owns. All of it lands on queue 0 of a live two-queue receive
// workload, so the verdict is measured, not asserted: the sibling queue's
// delivered-frame count must stay within ±15% of an unattacked run of the
// same scenario, and every squat attempt must show up as recorded evidence
// (revoked-page faults, revoked-reference drops) rather than as kernel
// effect.
//
// A trusted in-kernel driver is compromised by construction: its buffers
// stay writable after delivery because kernel memory has a single owner.
func PageSquat(cfg Config) (Outcome, error) {
	if cfg.Mode == InKernel {
		return Outcome{
			Attack:      "page-flip squatting",
			Config:      cfg.Name,
			Compromised: true,
			Detail:      "trusted driver: delivered buffers remain driver-writable; ownership never transfers",
		}, nil
	}

	baseline, _, err := pageSquatRun(cfg, false)
	if err != nil {
		return Outcome{}, err
	}
	attacked, tb, err := pageSquatRun(cfg, true)
	if err != nil {
		return Outcome{}, err
	}

	baseQ1 := baseline.q1Frames
	if baseQ1 < 100 {
		return Outcome{}, fmt.Errorf("attack: sibling queue idle in the baseline run (%d frames) — RSS did not spread the flows", baseQ1)
	}
	ratio := float64(attacked.q1Frames) / float64(baseQ1)

	// The squats must have been exercised and must have left evidence:
	// flips happened, the post-flip stores faulted, and the re-doorbelled
	// references were dropped as revoked — otherwise the run says nothing.
	eth, df := tb.EthProc.Eth, tb.EthProc.DF
	if eth.PagesFlipped == 0 || attacked.storeFaults == 0 || eth.RxRevokedRef == 0 || df.RevokedFaults == 0 {
		return Outcome{}, fmt.Errorf("attack: squat rounds left no evidence (flipped=%d storeFaults=%d revokedRefs=%d)",
			eth.PagesFlipped, attacked.storeFaults, eth.RxRevokedRef)
	}

	o := Outcome{Attack: "page-flip squatting", Config: cfg.Name}
	switch {
	case ratio < 0.85 || ratio > 1.15:
		o.Compromised = true
		o.Detail = fmt.Sprintf("sibling queue disturbed: %.0f%% of baseline throughput (outside the ±15%% band)", ratio*100)
	case attacked.rxFrames == 0:
		o.Compromised = true
		o.Detail = "attacked run delivered nothing — the squat starved the receive path"
	default:
		o.Detail = fmt.Sprintf("confined: sibling at %.0f%% of baseline, %d squat stores faulted, %d revoked refs dropped, %d recycle upcalls kept the pool whole",
			ratio*100, attacked.storeFaults, eth.RxRevokedRef, eth.RecycleUpcalls)
	}
	return o, nil
}

// pageSquatResult carries the per-run measurements PageSquat compares.
type pageSquatResult struct {
	q1Frames    uint64 // frames the proxy delivered on the sibling queue
	rxFrames    uint64 // datagrams the application received in total
	storeFaults int    // post-flip driver stores that faulted
}

// pageSquatRun boots the two-queue zero-copy receive scenario and runs it
// for a fixed measured span; with attacked set, queue 0 additionally takes a
// squat round every 200 µs (dribble, flip + stale store, re-doorbell).
func pageSquatRun(cfg Config, attacked bool) (pageSquatResult, *netperf.MultiFlowTestbed, error) {
	tb, err := netperf.NewMultiFlowTestbedFlip(2, cfg.Platform)
	if err != nil {
		return pageSquatResult{}, nil, err
	}
	var res pageSquatResult

	if attacked {
		// The squat scratch is the q0 TX buffer pool: driver-owned DMA
		// pages (so references into them validate, and flips genuinely
		// revoke driver memory) that the receive direction never uses,
		// and that sit outside every RX ring's pool — so the honest
		// driver rightly ignores them when they come back on the recycle
		// lane, and the proxy must keep the accounting straight anyway.
		var pool mem.Addr
		poolPages := e1000e.RingSize * e1000e.BufSize / mem.PageSize
		for _, a := range tb.EthProc.DF.Allocs() {
			if !a.Coherent && a.Pages == poolPages {
				pool = a.IOVA
				break
			}
		}
		if pool == 0 {
			return pageSquatResult{}, nil, fmt.Errorf("attack: TX buffer pool not found among the driver's allocations")
		}

		round := 0
		const rounds = 24
		var squat func()
		squat = func() {
			if round >= rounds {
				return
			}
			flipPage := pool + mem.Addr(round)*mem.PageSize
			dribblePage := pool + mem.Addr(poolPages/2+round)*mem.PageSize
			round++

			// (1) Dribble: a lone slot-0 reference can never tile its
			// page, so it guard-copies — and the page must still come
			// back on the recycle lane, or dribbling would drain the
			// pool one page per message.
			_ = tb.EthProc.Chan.DownQ(0, uchan.Msg{
				Op: ethproxy.OpNetifRxBatch,
				Data: ethproxy.AppendRxBatch(nil, []ethproxy.RxRef{
					{IOVA: uint64(dribblePage), Len: 60},
				}),
			})

			// (2) Force a flip with a fully-tiled batch, then store
			// through the stale mapping — the driver's window onto the
			// page is gone, so the store must fault and be recorded.
			refs := make([]ethproxy.RxRef, 0, mem.PageSize/ethproxy.RxSlotSize)
			for off := 0; off < mem.PageSize; off += ethproxy.RxSlotSize {
				refs = append(refs, ethproxy.RxRef{IOVA: uint64(flipPage) + uint64(off), Len: 60})
			}
			_ = tb.EthProc.Chan.DownQ(0, uchan.Msg{
				Op:   ethproxy.OpNetifRxBatch,
				Data: ethproxy.AppendRxBatch(nil, refs),
			})
			tb.EthProc.Chan.Flush()
			if _, err := tb.EthProc.DF.DriverTouch(flipPage, 64, true); err != nil {
				res.storeFaults++
			}

			// (3) Re-doorbell references into the flipped page: the
			// kernel owns it now, so each reference must drop as
			// revoked, never deliver.
			_ = tb.EthProc.Chan.DownQ(0, uchan.Msg{
				Op:   ethproxy.OpNetifRxBatch,
				Data: ethproxy.AppendRxBatch(nil, refs),
			})
			tb.EthProc.Chan.Flush()

			tb.M.Loop.After(200*sim.Microsecond, squat)
		}
		// First round lands after warmup, inside the measured span.
		tb.M.Loop.After(3*sim.Millisecond, squat)
	}

	opt := netperf.Options{
		Warmup: 2 * sim.Millisecond, Window: 5 * sim.Millisecond,
		MinWindows: 3, MaxWindows: 3,
	}
	r, err := netperf.MultiFlowDir(tb, 4, netperf.DirRX, opt)
	if err != nil {
		return pageSquatResult{}, nil, err
	}
	res.q1Frames = tb.EthProc.Eth.RxQueueFrames[1]
	res.rxFrames = uint64(r.RxKpps * 1000)
	return res, tb, nil
}
