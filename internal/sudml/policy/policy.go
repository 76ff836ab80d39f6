// Package policy is the supervisor's policy plane: it converts the raw
// evidence the recovery machinery accumulates — driver deaths, per-queue
// progress wedges, barrier-accounting violations from the block proxy,
// stale-epoch downcall floods from dead incarnations, interrupt-storm
// suppressions — into graded verdicts. PRs 4–5 built the *mechanism*
// (shadow recovery, flush-lie attribution); this package is the *policy*
// that decides what a driver's behaviour has earned:
//
//   - Restart: an isolated death or wedge. Recover immediately — the
//     ~100 µs respawn path, invisible to applications.
//   - RestartBackoff: the driver is crash-looping (it died again before
//     sustaining health). Recover after an exponentially growing delay,
//     so a probe-time crasher cannot burn the whole restart budget inside
//     one health-check period.
//   - Failover: a hot standby is armed — a second SUD process spawned and
//     pre-registered before the kill. Promote it instead of respawning,
//     turning kill-to-drained from respawn latency into failover latency.
//   - Quarantine: the driver exhausted its sliding-window restart budget,
//     or the evidence convicts it of active malice (flush lies, storm
//     abuse, stale-epoch flooding). The driver is barred; parked work is
//     failed cleanly instead of waiting for a restart that never comes.
//
// The engine is deterministic: verdicts are a pure function of the
// observation times and counters fed to it, so tests can replay exact
// decision sequences in virtual time.
package policy

import (
	"fmt"

	"sud/internal/sim"
	"sud/internal/trace"
)

// Verdict is one graded supervisor response.
type Verdict int

const (
	// Restart respawns the driver process immediately.
	Restart Verdict = iota
	// RestartBackoff respawns after Decision.Delay (crash loop pacing).
	RestartBackoff
	// Failover promotes the pre-spawned hot standby.
	Failover
	// Quarantine bars the driver: no further restarts, parked work is
	// failed cleanly, the device survives (down) for the admin.
	Quarantine
	// QuarantineQueue surgically quarantines one queue: its DMA
	// sub-domain stays revoked until the supervisor re-arms it and
	// replays the queue's log, while sibling queues — and the driver
	// process — keep running. Decision.Queue names the queue.
	QuarantineQueue
)

func (v Verdict) String() string {
	switch v {
	case Restart:
		return "restart"
	case RestartBackoff:
		return "restart-backoff"
	case Failover:
		return "failover"
	case Quarantine:
		return "quarantine"
	case QuarantineQueue:
		return "quarantine-queue"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Decision is one verdict plus how to execute it.
type Decision struct {
	Verdict Verdict
	// Delay is how long to wait before the restart (RestartBackoff only).
	Delay sim.Duration
	// Queue names the afflicted queue (QuarantineQueue only).
	Queue int
	// Reason is the one-line evidence trail for the kernel log.
	Reason string
}

// Config are the policy knobs. The defaults are chosen so that honest
// drivers suffering isolated faults are never quarantined (kills separated
// by sustained healthy service never exhaust the window budget), while a
// flapping driver — even one pacing itself against the backoff ladder —
// runs out of window budget in bounded time: at BackoffMax cadence,
// RestartWindow/BackoffMax restarts land in one window, which must exceed
// WindowBudget for the loop to converge on quarantine.
type Config struct {
	// WindowBudget is the restart allowance inside RestartWindow: one more
	// death once this many restarts sit in the window is a crash loop.
	WindowBudget int
	// RestartWindow is the sliding window W the budget is counted over.
	RestartWindow sim.Duration
	// BackoffBase is the first crash-loop restart delay; it doubles per
	// consecutive crash-loop death up to BackoffMax.
	BackoffBase sim.Duration
	// BackoffMax caps the ladder.
	BackoffMax sim.Duration
	// HealthyAfter is the sustained service time after a restart that
	// resets the ladder: a death later than this is a fresh fault, not a
	// crash loop.
	HealthyAfter sim.Duration
	// StormLimit convicts the driver once this many interrupt-storm
	// suppressions have fired on its device file.
	StormLimit uint64
	// StaleLimit convicts once dead incarnations of the driver have
	// produced this many stale-epoch downcalls: a handful is the normal
	// wake-vs-death race, a flood is a zombie replaying traffic.
	StaleLimit uint64
	// QueueOffenseLimit is the per-queue fault tolerance: the first
	// offenses on a queue earn surgical QuarantineQueue verdicts (park,
	// re-arm, replay — siblings untouched); reaching the limit escalates
	// to a full process quarantine, because a queue that keeps faulting
	// after fresh sub-domains is a compromised driver, not a glitch.
	QueueOffenseLimit int
}

// DefaultConfig returns the supervisor defaults (virtual time).
func DefaultConfig() Config {
	return Config{
		WindowBudget:      8,
		RestartWindow:     500 * sim.Millisecond,
		BackoffBase:       1 * sim.Millisecond,
		BackoffMax:        50 * sim.Millisecond,
		HealthyAfter:      25 * sim.Millisecond,
		StormLimit:        3,
		StaleLimit:        256,
		QueueOffenseLimit: 3,
	}
}

// Evidence is one health-check snapshot of the misbehaviour counters the
// proxies and the confinement layer export. All counters are cumulative
// over the supervised driver's lifetime (across incarnations).
type Evidence struct {
	// BarrierViolations counts flush completions the block proxy's barrier
	// accounting rejected (CompBadBarrier + CompBarrierEarly): the driver
	// acked durability it cannot have provided.
	BarrierViolations uint64
	// FlushesAcked / FlushesExecuted are the issued-vs-executed halves of
	// flush-lie attribution: barriers the driver acked versus CmdFlush
	// commands the device ground truth says were executed. Acked > executed
	// is a lie no matter how it was framed.
	FlushesAcked    uint64
	FlushesExecuted uint64
	// StaleEpoch counts downcalls from dead incarnations (harvested from
	// each incarnation's proxy at restart, plus the live proxy's count).
	StaleEpoch uint64
	// StormTrips counts interrupt-storm suppressions on the device file.
	StormTrips uint64
}

// Engine holds the sliding-window restart history, the backoff ladder and
// the conviction state for one supervised driver.
type Engine struct {
	Cfg Config

	// Flight, when set by the supervisor, receives every conviction and
	// graded verdict (nil-safe): the policy plane's entries in the
	// per-device flight recorder.
	Flight *trace.Flight

	restarts    []sim.Time // restart times still inside the window
	backoff     sim.Duration
	lastRestart sim.Time
	restarted   bool // at least one restart has happened

	quarantined bool
	reason      string

	// qconvictions counts surgical quarantines per queue; reaching
	// Cfg.QueueOffenseLimit escalates to a full conviction.
	qconvictions map[int]int
}

// NewEngine returns an engine with the given knobs.
func NewEngine(cfg Config) *Engine { return &Engine{Cfg: cfg} }

// Quarantined reports whether the driver has been barred.
func (e *Engine) Quarantined() bool { return e.quarantined }

// Reason returns the evidence trail behind the quarantine ("" if none).
func (e *Engine) Reason() string { return e.reason }

// InWindow reports how many restarts sit inside the sliding window at now.
func (e *Engine) InWindow(now sim.Time) int {
	e.prune(now)
	return len(e.restarts)
}

// prune drops restart timestamps that have aged out of the window.
func (e *Engine) prune(now sim.Time) {
	cut := now - e.Cfg.RestartWindow
	i := 0
	for i < len(e.restarts) && e.restarts[i] <= cut {
		i++
	}
	e.restarts = e.restarts[i:]
}

// Convict bars the driver on direct evidence, independent of the restart
// history. The next OnDeath (and every later one) returns Quarantine.
func (e *Engine) Convict(reason string) {
	if e.quarantined {
		return
	}
	e.quarantined = true
	e.reason = reason
	e.Flight.Recordf(trace.FEvidence, "convicted: %s", reason)
}

// Observe folds one health-check evidence snapshot into the conviction
// state. It returns true if the snapshot convicted the driver — the caller
// should then kill the process and execute the Quarantine verdict.
func (e *Engine) Observe(ev Evidence) bool {
	if e.quarantined {
		return false
	}
	switch {
	case ev.BarrierViolations > 0:
		e.Convict(fmt.Sprintf("flush lie: %d barrier-accounting violations", ev.BarrierViolations))
	case ev.FlushesAcked > ev.FlushesExecuted:
		e.Convict(fmt.Sprintf("flush lie: %d barriers acked, %d executed by the device",
			ev.FlushesAcked, ev.FlushesExecuted))
	case e.Cfg.StormLimit > 0 && ev.StormTrips >= e.Cfg.StormLimit:
		e.Convict(fmt.Sprintf("interrupt storm: %d suppressions", ev.StormTrips))
	case e.Cfg.StaleLimit > 0 && ev.StaleEpoch >= e.Cfg.StaleLimit:
		e.Convict(fmt.Sprintf("stale-epoch flood: %d downcalls from dead incarnations", ev.StaleEpoch))
	default:
		return false
	}
	return true
}

// OnDeath grades the response to a driver death (or a wedge the supervisor
// is about to kill). standbyArmed reports whether a hot standby is ready
// for promotion; cause is the detector's one-word trail for the log.
//
// Grading order: a convicted or budget-exhausted driver is quarantined; a
// crash-looping one (death within HealthyAfter of its last restart) climbs
// the backoff ladder — a crash loop never consumes the hot standby, which
// would just be killed again; otherwise the death is a fresh fault and the
// standby (when armed) takes over at failover latency, falling back to an
// immediate restart.
func (e *Engine) OnDeath(now sim.Time, standbyArmed bool, cause string) Decision {
	if e.quarantined {
		return e.graded(Decision{Verdict: Quarantine, Reason: e.reason})
	}
	e.prune(now)
	if len(e.restarts) >= e.Cfg.WindowBudget {
		e.Convict(fmt.Sprintf("crash loop: %d restarts within %v (%s)",
			len(e.restarts), e.Cfg.RestartWindow, cause))
		return e.graded(Decision{Verdict: Quarantine, Reason: e.reason})
	}
	crashLoop := e.restarted && now-e.lastRestart < e.Cfg.HealthyAfter
	if !crashLoop {
		e.backoff = 0 // sustained health resets the ladder
		if standbyArmed {
			return e.graded(Decision{Verdict: Failover, Reason: cause})
		}
		return e.graded(Decision{Verdict: Restart, Reason: cause})
	}
	if e.backoff == 0 {
		e.backoff = e.Cfg.BackoffBase
	} else if e.backoff < e.Cfg.BackoffMax {
		e.backoff *= 2
		if e.backoff > e.Cfg.BackoffMax {
			e.backoff = e.Cfg.BackoffMax
		}
	}
	return e.graded(Decision{Verdict: RestartBackoff, Delay: e.backoff,
		Reason: fmt.Sprintf("crash loop (%s): backing off %v", cause, e.backoff)})
}

// OnQueueFault grades the response to DMA faults attributable to exactly one
// queue — descriptors naming memory outside the queue's own sub-domain. The
// first offenses earn a surgical QuarantineQueue: park and re-arm that queue
// alone, siblings untouched. A queue that keeps offending after fresh
// sub-domains (QueueOffenseLimit reached) is evidence of a compromised
// driver, not a transient glitch, and escalates to a full Quarantine via
// conviction.
func (e *Engine) OnQueueFault(now sim.Time, q int, cause string) Decision {
	if e.quarantined {
		return e.graded(Decision{Verdict: Quarantine, Queue: q, Reason: e.reason})
	}
	if e.qconvictions == nil {
		e.qconvictions = make(map[int]int)
	}
	e.qconvictions[q]++
	if e.Cfg.QueueOffenseLimit > 0 && e.qconvictions[q] >= e.Cfg.QueueOffenseLimit {
		e.Convict(fmt.Sprintf("queue %d: %d surgical quarantines (%s)", q, e.qconvictions[q], cause))
		return e.graded(Decision{Verdict: Quarantine, Queue: q, Reason: e.reason})
	}
	return e.graded(Decision{Verdict: QuarantineQueue, Queue: q,
		Reason: fmt.Sprintf("queue %d offense %d/%d: %s", q, e.qconvictions[q], e.Cfg.QueueOffenseLimit, cause)})
}

// QueueOffenses reports how many surgical quarantines queue q has earned.
func (e *Engine) QueueOffenses(q int) int { return e.qconvictions[q] }

// graded records the decision in the flight recorder on its way out.
func (e *Engine) graded(d Decision) Decision {
	e.Flight.Recordf(trace.FVerdict, "%s: %s", d.Verdict, d.Reason)
	return d
}

// RecordRestart logs a completed restart (or failover) into the window.
func (e *Engine) RecordRestart(now sim.Time) {
	e.prune(now)
	e.restarts = append(e.restarts, now)
	e.lastRestart = now
	e.restarted = true
}
