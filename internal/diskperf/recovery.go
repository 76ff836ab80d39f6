package diskperf

import (
	"bytes"
	"fmt"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/nvmed"
	"sud/internal/hw"
	"sud/internal/proxy/blkproxy"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/trace"
)

// NewSupervisedTestbed boots the SUD block testbed with the nvmed process
// under shadow-driver supervision (internal/sudml.SuperviseBlock): a kill
// of the driver process triggers transparent restart, adoption and replay
// instead of failing in-flight requests.
func NewSupervisedTestbed(queues int, plat hw.Platform) (*Testbed, error) {
	return newSupervisedTestbed(queues, false, plat)
}

// NewSupervisedTestbedFlip is NewSupervisedTestbed with the page-flip fast
// path enabled: the page-aware nvmed driver paired with a GuardPageFlip
// proxy, on every incarnation — the supervisor re-applies the guard mode to
// respawned and promoted processes, so a kill -9 mid-flip recovers onto the
// same zero-copy contract.
func NewSupervisedTestbedFlip(queues int, plat hw.Platform) (*Testbed, error) {
	return newSupervisedTestbed(queues, true, plat)
}

func newSupervisedTestbed(queues int, flip bool, plat hw.Platform) (*Testbed, error) {
	tb := newBed(ModeSUD, queues, 0, plat)
	tb.Flip = flip
	drv := nvmed.NewQ(tb.Queues)
	if flip {
		drv = nvmed.NewFlipQ(tb.Queues)
	}
	sup, err := sudml.SuperviseBlock(tb.K, tb.Ctrl, drv, "nvmed", "nvme0", 1003, tb.Queues)
	if err != nil {
		return nil, err
	}
	if flip {
		// Generation 0 was probed before this knob existed on the
		// supervisor; later incarnations inherit it from BlkGuard.
		sup.BlkGuard = blkproxy.GuardPageFlip
		sup.Proc().Blk.GuardMode = blkproxy.GuardPageFlip
	}
	tb.Proc, tb.Sup = sup.Proc(), sup
	return tb.up()
}

// NewFailoverTestbed boots the supervised block testbed and arms a hot
// standby before returning: a kill of the driver process is graded to
// failover (standby promotion) instead of a cold respawn, so the
// kill-to-drained path pays only probe + bring-up + replay.
func NewFailoverTestbed(queues int, plat hw.Platform) (*Testbed, error) {
	tb, err := NewSupervisedTestbed(queues, plat)
	if err != nil {
		return nil, err
	}
	if err := tb.Sup.ArmStandby(); err != nil {
		return nil, err
	}
	return tb, nil
}

// RecoveryResult is one kill-during-saturation measurement: how invisibly
// the block path survived a kill -9 of its driver process.
type RecoveryResult struct {
	Queues, Jobs, Depth int
	// KillAfterUS is when the kill fired, virtual µs from workload start.
	KillAfterUS float64
	// Restarts is the supervised restart count (1 for a single kill).
	Restarts int
	// Failovers counts recoveries served by hot-standby promotion (1 when
	// the testbed was armed with NewFailoverTestbed, 0 for cold respawn).
	Failovers int
	// Replayed is the number of logged in-flight requests re-submitted to
	// the restarted process.
	Replayed int
	// RecoveryLatencyUS is the application-visible gap: virtual µs from
	// the kill until every request outstanding at kill time had completed.
	RecoveryLatencyUS float64
	// DrainP50US/DrainP99US are percentiles over the per-request drain
	// latencies (kill → that request's completion) of the requests
	// outstanding at kill time — the distribution behind the
	// kill-to-drained figure, which the CI recovery SLO gates on p99.
	DrainP50US float64
	DrainP99US float64
	// Completed counts requests finished over the whole run; Errors counts
	// completions that surfaced an error or wrong data to the caller —
	// the acceptance criterion is zero.
	Completed uint64
	Errors    uint64
}

func (r RecoveryResult) String() string {
	kind := "restart(s)"
	if r.Failovers > 0 {
		kind = "failover(s)"
	}
	return fmt.Sprintf(
		"BLOCK_RECOVERY Q=%d J=%d D=%d kill@%.0fµs: %d %s, %d replayed, recovered in %.1fµs (drain p50 %.1fµs p99 %.1fµs), %d completed, %d errors\n",
		r.Queues, r.Jobs, r.Depth, r.KillAfterUS, r.Restarts, kind, r.Replayed,
		r.RecoveryLatencyUS, r.DrainP50US, r.DrainP99US, r.Completed, r.Errors)
}

// KillRecovery drives the fio-style workload against a supervised testbed,
// kills the driver process killAfter into the run, and measures the
// recovery: replayed requests, the kill-to-drained latency, and — the
// invariant — that no submitted request surfaced an error or wrong bytes.
// Each LBA holds an invariant fill pattern (seedPattern), so a read serviced
// from the wrong incarnation's buffers is detected as an error.
func KillRecovery(tb *Testbed, jobs, depth int, killAfter, runFor sim.Duration) (RecoveryResult, error) {
	if tb.Sup == nil {
		return RecoveryResult{}, fmt.Errorf("diskperf: KillRecovery needs a supervised testbed")
	}
	if jobs < 1 || depth < 1 {
		return RecoveryResult{}, fmt.Errorf("diskperf: need at least one job and depth 1")
	}
	seedPattern(tb)

	res := RecoveryResult{Queues: tb.Queues, Jobs: jobs, Depth: depth,
		KillAfterUS: float64(killAfter) / float64(sim.Microsecond)}
	var killedAt sim.Time
	preKill := 0 // requests outstanding at kill time, not yet completed
	outstanding := 0
	var recoveredAt sim.Time
	var drain trace.Hist // per-request kill→completion latencies

	l := &load{tb: tb, span: seedSpan}
	l.submit = func(p *pipe) error {
		p.at = tb.M.Now()
		outstanding++
		err := tb.Dev.ReadAt(p.lba, p.read)
		if err != nil {
			outstanding--
		}
		return err
	}
	l.done = func(p *pipe, data []byte, err error) {
		outstanding--
		res.Completed++
		if err != nil || !seeded(p.lba, data) {
			res.Errors++
		}
		if killedAt != 0 && p.at <= killedAt {
			preKill--
			drain.Record(tb.M.Now() - killedAt)
			if preKill == 0 && recoveredAt == 0 {
				recoveredAt = tb.M.Now()
			}
		}
		p.reaped()
	}
	l.run(jobs, depth)
	tb.M.Loop.After(killAfter, func() {
		killedAt = tb.M.Now()
		preKill = outstanding
		tb.Sup.Proc().Kill()
	})
	if runFor < killAfter+50*sim.Millisecond {
		runFor = killAfter + 50*sim.Millisecond
	}
	tb.M.Loop.RunFor(runFor)
	// The testbed's loop still holds callbacks of this run; they issue and
	// check nothing more.
	l.stopped = true

	res.Restarts = tb.Sup.Restarts
	res.Failovers = tb.Sup.Failovers
	res.Replayed = tb.Sup.LastReplayed
	if recoveredAt != 0 {
		res.RecoveryLatencyUS = float64(recoveredAt-killedAt) / float64(sim.Microsecond)
	} else if preKill > 0 {
		return res, fmt.Errorf("diskperf: %d pre-kill requests never completed", preKill)
	}
	res.DrainP50US = drain.PercentileUS(0.50)
	res.DrainP99US = drain.PercentileUS(0.99)
	return res, nil
}

// seedSpan is how many LBAs the kill and queue-breach runs read.
const seedSpan = 64

// seedPattern fills LBAs [0, seedSpan) with a fill pattern that differs per
// LBA: block lba is seedByte(lba) repeated. The media copies what it is
// seeded with, so one block on the stack seeds every LBA.
func seedPattern(tb *Testbed) {
	var b [nvme.BlockSize]byte
	for lba := uint64(0); lba < seedSpan; lba++ {
		v := seedByte(lba)
		for i := range b {
			b[i] = v
		}
		tb.Ctrl.SeedMedia(lba, b[:])
	}
}

func seedByte(lba uint64) byte { return byte(lba*31 + 7) }

// seeded reports whether data is exactly block lba as seedPattern wrote it:
// one whole block, every byte seedByte(lba).
func seeded(lba uint64, data []byte) bool {
	return len(data) == nvme.BlockSize && bytes.Count(data, []byte{seedByte(lba)}) == len(data)
}
