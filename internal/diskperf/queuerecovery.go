package diskperf

import (
	"fmt"

	"sud/internal/mem"
	"sud/internal/sim"
)

// QueueRecoveryResult is one surgical single-queue recovery measurement:
// one queue of a supervised multi-queue testbed raises DMA sub-domain
// faults mid-saturation, the supervisor quarantines and re-arms exactly
// that queue, and the siblings must not notice. The CI gate bands the
// sibling throughput during the episode against the checked-in baseline
// (±15%) and against the same run's pre-breach rate.
type QueueRecoveryResult struct {
	Queues, Jobs, Depth int
	// BreachAfterUS is when the breached queue started faulting, virtual µs
	// from workload start.
	BreachAfterUS float64
	// QueueRecoveries is the supervisor's surgical recovery count: the
	// breach must have been answered per-queue, not by a process restart.
	QueueRecoveries int
	// Restarts stays zero — a surgical recovery must not cost a respawn.
	Restarts int
	// Replayed is the number of logged requests re-submitted on the
	// breached queue by the surgical recovery.
	Replayed int
	// PreSiblingKIOPS / SiblingKIOPS are the sibling queues' aggregate
	// read rate over the measurement window before the breach and over the
	// window spanning detection, quarantine, re-arm and replay.
	PreSiblingKIOPS float64
	SiblingKIOPS    float64
	// BreachedKIOPS is the breached queue's own rate over the episode
	// window — it dips for the quarantine but recovers within the window.
	BreachedKIOPS float64
	// Completed counts requests finished over the whole run; Errors counts
	// completions that surfaced an error, wrong bytes, or a duplicate —
	// the acceptance criterion is zero.
	Completed uint64
	Errors    uint64
}

func (r QueueRecoveryResult) String() string {
	return fmt.Sprintf(
		"BLOCK_QRECOVERY Q=%d J=%d D=%d breach@%.0fµs: %d surgical, %d restarts, %d replayed, sibling %.1f -> %.1f KIOPS, breached %.1f KIOPS, %d completed, %d errors\n",
		r.Queues, r.Jobs, r.Depth, r.BreachAfterUS, r.QueueRecoveries, r.Restarts,
		r.Replayed, r.PreSiblingKIOPS, r.SiblingKIOPS, r.BreachedKIOPS,
		r.Completed, r.Errors)
}

// qrecoveryWindow is the measurement window on either side of the breach:
// long enough to span fault, detection (one supervisor check period),
// quarantine, re-arm and replay, short enough that a sibling dip cannot
// hide in the average.
const qrecoveryWindow = 10 * sim.Millisecond

// QueueBreachRecovery drives the fio-style read workload against a
// supervised multi-queue testbed with jobs pinned round-robin to queues,
// then makes the last queue's DMA engine fault (an unmapped IOVA walked
// through its sub-domain — what a corrupted descriptor produces under
// queue-granular confinement). The supervisor's next health check answers
// with a surgical recovery: that one queue is revoked, parked, graded,
// re-armed and replayed while the driver process and every sibling queue
// keep running. Measured: sibling throughput before vs during the episode,
// the breached queue's own recovery, and — the invariant — that no request
// surfaces an error, wrong bytes, or a duplicate completion.
func QueueBreachRecovery(tb *Testbed, jobs, depth int, breachAfter, runFor sim.Duration) (QueueRecoveryResult, error) {
	if tb.Sup == nil {
		return QueueRecoveryResult{}, fmt.Errorf("diskperf: QueueBreachRecovery needs a supervised testbed")
	}
	if tb.Queues < 2 {
		return QueueRecoveryResult{}, fmt.Errorf("diskperf: QueueBreachRecovery needs at least 2 queues")
	}
	if jobs < 1 || depth < 1 {
		return QueueRecoveryResult{}, fmt.Errorf("diskperf: need at least one job and depth 1")
	}
	if breachAfter < qrecoveryWindow+sim.Millisecond {
		breachAfter = qrecoveryWindow + sim.Millisecond
	}
	seedPattern(tb)

	breachQ := tb.Queues - 1
	res := QueueRecoveryResult{Queues: tb.Queues, Jobs: jobs, Depth: depth,
		BreachAfterUS: float64(breachAfter) / float64(sim.Microsecond)}
	var breachAt sim.Time
	pre := make([]uint64, tb.Queues)    // completions in [breach-window, breach)
	during := make([]uint64, tb.Queues) // completions in [breach, breach+window)
	preStart := sim.Time(breachAfter - qrecoveryWindow)

	l := &load{tb: tb, span: seedSpan}
	l.submit = func(p *pipe) error {
		p.open = true
		return tb.Dev.ReadAtQ(p.lba, p.job%tb.Queues, p.read)
	}
	l.done = func(p *pipe, data []byte, err error) {
		if !p.open {
			// A request answered twice — the replay was not exactly-once.
			res.Errors++
			return
		}
		p.open = false
		res.Completed++
		if err != nil || !seeded(p.lba, data) {
			res.Errors++
		}
		q := p.job % tb.Queues
		now := tb.M.Now()
		switch {
		case breachAt == 0:
			if now >= preStart {
				pre[q]++
			}
		case now < breachAt+sim.Time(qrecoveryWindow):
			during[q]++
		}
		p.reaped()
	}
	l.run(jobs, depth)
	tb.M.Loop.After(breachAfter, func() {
		breachAt = tb.M.Now()
		// The breached queue's engine walks an IOVA nothing mapped into its
		// sub-domain: the fault is attributed to (BDF, stream breachQ+1),
		// which is exactly the signal the supervisor's surgical detector
		// scans for.
		for i := 0; i < 3; i++ {
			_, _, _ = tb.M.IOMMU.TranslateQ(tb.Ctrl.BDF(), breachQ+1, mem.Addr(0xDEAD0000+i*0x1000), true)
		}
	})
	if runFor < breachAfter+qrecoveryWindow+10*sim.Millisecond {
		runFor = breachAfter + qrecoveryWindow + 10*sim.Millisecond
	}
	tb.M.Loop.RunFor(runFor)
	// The testbed's loop still holds callbacks of this run; they issue and
	// check nothing more.
	l.stopped = true

	res.QueueRecoveries = tb.Sup.QueueRecoveries
	res.Restarts = tb.Sup.Restarts
	res.Replayed = tb.Sup.LastReplayed
	windowSec := float64(qrecoveryWindow) / float64(sim.Second)
	var preSib, durSib uint64
	for q := 0; q < tb.Queues; q++ {
		if q == breachQ {
			continue
		}
		preSib += pre[q]
		durSib += during[q]
	}
	res.PreSiblingKIOPS = float64(preSib) / windowSec / 1e3
	res.SiblingKIOPS = float64(durSib) / windowSec / 1e3
	res.BreachedKIOPS = float64(during[breachQ]) / windowSec / 1e3
	return res, nil
}
