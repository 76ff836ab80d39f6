package sudml

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/kernel"
	"sud/internal/kernel/shadow"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/sudml/policy"
	"sud/internal/trace"
)

// Supervisor implements the shadow-driver recovery the paper points at
// (§2: "SUD's architecture could also use shadow drivers to gracefully
// restart untrusted device drivers"; §5.2: "It is also relatively simple to
// restart a crashed device driver"). It watches one driver process, detects
// death or unresponsiveness, and recovers transparently: the kernel-side
// device object (netstack.Iface or blockdev.Dev) survives in the recovering
// state, the next incarnation adopts it, bring-up is replayed, and — for
// block devices — the shadow's in-flight request log is re-submitted under
// the original tags. Applications see a latency blip, never an error.
//
// What the supervisor does about a death is no longer hardwired: every
// detection is graded by the policy engine (internal/sudml/policy) into one
// of four verdicts —
//
//   - restart: respawn immediately (an isolated fault);
//   - restart with exponential backoff: the driver is crash-looping, pace
//     the respawns so a probe-time crasher cannot burn the whole budget
//     inside one health-check period;
//   - failover: promote the pre-spawned hot standby (ArmStandby, block
//     devices only), paying probe + bring-up + replay instead of the full
//     respawn path;
//   - quarantine: the sliding-window restart budget is exhausted, or the
//     evidence (flush lies, interrupt storms, stale-epoch floods) convicts
//     the driver outright — bar it, fail the parked work cleanly, and
//     leave the device down for the admin.
//
// Death detection is immediate (the process's OnDeath hook — SIGCHLD, in
// effect). Hang detection uses per-queue progress watermarks a malicious
// driver cannot suppress — a ring whose backlog persists while its served
// counter stands still is wedged, even when sibling queues are making
// progress — plus a failed synchronous probe (the interruptible MII ioctl)
// for netdev drivers.
type Supervisor struct {
	K      *kernel.Kernel
	Dev    pci.Device
	Driver api.Driver
	Name   string
	UID    int
	Queues int

	// CheckEvery is the health-check period.
	CheckEvery sim.Duration
	// BacklogLimit flags the driver when one queue's upcall ring holds at
	// least a proportional share (BacklogLimit / queues, at minimum 8) of
	// this many messages across consecutive checks with no served
	// progress on that queue.
	BacklogLimit int
	// MaxRestarts is the sliding-window restart budget: one more death
	// with this many restarts inside Policy.Cfg.RestartWindow is a crash
	// loop and quarantines the driver. Isolated kills separated by
	// healthy service age out of the window and never exhaust it.
	MaxRestarts int

	// Policy grades every detection into a verdict; its config is the
	// supervisor's knob surface for backoff and conviction thresholds.
	Policy *policy.Engine

	// Flight is the per-device flight recorder: a bounded ring holding the
	// last detection/evidence/verdict/recovery transitions. One ring is
	// shared by the supervisor, the policy engine, every process
	// incarnation (kill events) and the supervised kernel objects
	// (park/adopt/replay/drain), so a dump reads as one ordered timeline.
	Flight *trace.Flight

	// OnRestart, if set, runs after each successful recovery.
	OnRestart func(generation int)

	// BlkGuard is the guard mode (blkproxy.GuardCopy / GuardPageFlip)
	// applied to every incarnation's block proxy — including respawns and
	// armed standbys. A page-aware driver (nvmed.NewFlipQ) must always
	// face a GuardPageFlip proxy, or the restarted incarnation would defer
	// descriptor re-arm to a recycle lane that never runs.
	BlkGuard int

	proc        *Process
	standby     *Process // pre-spawned hot-standby shell (nil = disarmed)
	stopped     bool
	lastBad     bool
	lastServedQ []uint64 // per-queue driver-produced messages at the previous check
	checkFn     func()   // s.check, bound once so each rescheduling allocates nothing
	recovering  bool
	backingOff  bool // a paced restart is scheduled; don't grade this death again
	Restarts    int
	// Failovers counts recoveries served by standby promotion; Quarantined
	// latches when supervision ends with the driver barred. LastVerdict is
	// the most recent grading.
	Failovers   int
	Quarantined bool
	LastVerdict policy.Verdict

	// QueueRecoveries counts surgical single-queue recoveries: sub-domain
	// faults attributable to one queue, answered by revoking that queue's
	// DMA and replaying only its work while siblings keep serving.
	QueueRecoveries int
	// lastStreamFaults is the per-queue IOMMU sub-domain fault watermark
	// (stream q+1) at the previous health check; a delta is the detection
	// signal for surgical recovery.
	lastStreamFaults []uint64

	// staleHarvest accumulates stale-epoch downcall counts from dead
	// incarnations' proxies (evidence for the policy plane).
	staleHarvest uint64

	// ifName / blkName select the device class under supervision (either
	// or both may be set); they name the kernel object to recover.
	ifName  string
	blkName string

	// NetShadow / BlkShadow are the recovery-state mirrors attached to the
	// supervised kernel objects (internal/kernel/shadow).
	NetShadow *shadow.Net
	BlkShadow *shadow.Block

	// LastReplayed is the number of logged block requests re-submitted by
	// the most recent recovery; LastRecoveryAt is when it finished.
	LastReplayed   int
	LastRecoveryAt sim.Time
}

// Supervise starts a netdev-class driver process under supervision,
// single-queue. Pass the interface name so its configuration can be
// shadowed and replayed.
func Supervise(k *kernel.Kernel, dev pci.Device, drv api.Driver, name, ifName string, uid int) (*Supervisor, error) {
	return supervise(k, dev, drv, name, ifName, "", uid, 1)
}

// SuperviseNetQ starts a netdev-class driver process under supervision with
// `queues` uchan ring pairs — the multi-queue net analogue of SuperviseBlock.
// The tenant plane uses it so the NIC queue carrying one tenant's flows can
// be revoked, parked and surgically recovered without touching siblings.
func SuperviseNetQ(k *kernel.Kernel, dev pci.Device, drv api.Driver, name, ifName string, uid, queues int) (*Supervisor, error) {
	return supervise(k, dev, drv, name, ifName, "", uid, queues)
}

// SuperviseBlock starts a block-class driver process under supervision with
// `queues` uchan ring pairs. blkName is the block device the driver
// registers (e.g. "nvme0"); its geometry and in-flight request log are
// shadowed so a kill is invisible to ReadAt/WriteAt callers.
func SuperviseBlock(k *kernel.Kernel, dev pci.Device, drv api.Driver, name, blkName string, uid, queues int) (*Supervisor, error) {
	return supervise(k, dev, drv, name, "", blkName, uid, queues)
}

func supervise(k *kernel.Kernel, dev pci.Device, drv api.Driver, name, ifName, blkName string, uid, queues int) (*Supervisor, error) {
	if queues < 1 {
		queues = 1
	}
	s := &Supervisor{
		K: k, Dev: dev, Driver: drv, Name: name, UID: uid, Queues: queues,
		CheckEvery:   5 * sim.Millisecond,
		BacklogLimit: 64,
		MaxRestarts:  8,
		Policy:       policy.NewEngine(policy.DefaultConfig()),
		ifName:       ifName,
		blkName:      blkName,
		Flight:       trace.NewFlight(k.M.Loop, trace.FlightSize),
	}
	s.checkFn = s.check
	s.Policy.Flight = s.Flight
	if err := s.start(0); err != nil {
		return nil, err
	}
	s.attachShadows()
	s.schedule()
	return s, nil
}

// baselineQueueFaults snapshots the per-queue sub-domain fault counters so
// only faults raised under supervision trigger surgical recovery.
func (s *Supervisor) baselineQueueFaults() {
	bdf := s.Dev.BDF()
	s.lastStreamFaults = make([]uint64, s.Queues)
	for q := 0; q < s.Queues; q++ {
		s.lastStreamFaults[q] = s.K.M.IOMMU.StreamFaults(bdf, q+1)
	}
}

// attachShadows arms recovery recording on the supervised kernel objects.
// The kernel objects survive restarts (adoption), so this runs once.
func (s *Supervisor) attachShadows() {
	if s.ifName != "" {
		if ifc, err := s.K.Net.Iface(s.ifName); err == nil {
			s.NetShadow = &shadow.Net{}
			ifc.Shadow = s.NetShadow
			ifc.Flight = s.Flight
		}
	}
	if s.blkName != "" {
		if d, err := s.K.Blk.Dev(s.blkName); err == nil {
			s.BlkShadow = shadow.NewBlock(d.Geom)
			d.AttachShadow(s.BlkShadow)
			d.Flight = s.Flight
		}
	}
}

func (s *Supervisor) start(gen int) error {
	name, blkName := s.Name, ""
	if gen > 0 {
		// A respawn registers as the block device under supervision,
		// whatever name its driver asks for, so it adopts that device.
		name, blkName = fmt.Sprintf("%s-r%d", s.Name, gen), s.blkName
	}
	proc, err := startQ(s.K, s.Dev, s.Driver, name, s.UID, s.Queues, blkName)
	if err != nil {
		return err
	}
	if proc.Blk != nil {
		proc.Blk.GuardMode = s.BlkGuard
	}
	proc.Flight = s.Flight
	proc.Recoverable = true
	proc.OnDeath = s.onDeath
	s.proc = proc
	s.lastBad = false
	s.lastServedQ = nil
	// Faults raised while the previous incarnation was dying (in-flight DMA
	// after the kill) belong to that incarnation; rebase the surgical
	// watermarks so they are not charged to the fresh process.
	s.baselineQueueFaults()
	return nil
}

// Proc returns the currently supervised process.
func (s *Supervisor) Proc() *Process { return s.proc }

// StandbyProc returns the armed hot-standby shell (nil when disarmed).
func (s *Supervisor) StandbyProc() *Process { return s.standby }

// ArmStandby pre-spawns a hot-standby driver process for the supervised
// block device and pre-registers it with the block core — before any kill —
// so a later death is graded to failover: the standby adopts the device
// through the same name+geometry identity check a restarted driver would
// pass, but with the respawn cost already sunk. After each failover a fresh
// standby is re-armed automatically (best effort). Failover is block-only:
// on a supervisor without a block device it fails before spawning anything,
// and a net driver death is recovered by a cold respawn.
func (s *Supervisor) ArmStandby() error {
	if s.stopped {
		return fmt.Errorf("sudml: supervision of %s has ended", s.Name)
	}
	if s.blkName == "" {
		return fmt.Errorf("sudml: %s supervises no block device; hot standby is block-only", s.Name)
	}
	if s.standby != nil {
		return nil
	}
	d, err := s.K.Blk.Dev(s.blkName)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-sb%d", s.Name, s.Restarts)
	sb, err := StartStandbyQ(s.K, s.Dev, s.Driver, name, s.UID, s.Queues)
	if err != nil {
		return err
	}
	sb.Flight = s.Flight
	if err := sb.ArmBlockStandby(s.blkName, d.Geom); err != nil {
		sb.Kill()
		return err
	}
	sb.Blk.GuardMode = s.BlkGuard
	s.standby = sb
	return nil
}

// DisarmStandby kills the armed standby shell and removes its block-core
// registration.
func (s *Supervisor) DisarmStandby() {
	if s.standby == nil {
		return
	}
	s.K.Blk.UnregisterStandby(s.blkName)
	s.standby.Kill()
	s.standby = nil
}

// Stop ends supervision (the process keeps running; an armed standby shell
// is torn down). It is idempotent, and an onDeath or health-check event
// already in flight when it runs becomes a no-op.
func (s *Supervisor) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.DisarmStandby()
}

func (s *Supervisor) schedule() {
	s.K.M.Loop.After(s.CheckEvery, s.checkFn)
}

// onDeath is the immediate kill notification: the supervised process died
// (kill -9, confinement kill, or crash). Grading runs from a fresh loop
// event — the death may have been signalled mid-upcall.
func (s *Supervisor) onDeath() {
	if s.stopped || s.recovering {
		return
	}
	s.K.M.Loop.After(0, func() {
		if s.stopped || s.recovering || s.backingOff || s.proc == nil || !s.proc.Killed() {
			return
		}
		s.decide("died")
	})
}

// check is the periodic health probe, run in kernel context. Once the
// supervisor has stopped — including a quarantine verdict issued by a
// recovery this check triggered — no further check is scheduled: the give-up
// path must not leave a stray timer behind.
func (s *Supervisor) check() {
	if s.stopped || s.proc == nil {
		return
	}
	if s.proc.Killed() {
		// Death is normally handled by onDeath; this is the fallback for a
		// process that died without the hook firing (and the path that
		// re-grades a death during backoff pacing — decide() dedups).
		s.decide("died")
		if s.stopped {
			return
		}
		s.schedule()
		return
	}
	if s.observeEvidence() {
		// The evidence convicted the driver outright: kill it and let the
		// grading (now latched at quarantine) run the give-up path.
		s.K.Logf("supervisor: %s convicted: %s", s.Name, s.Policy.Reason())
		s.decide("convicted")
		if s.stopped {
			return
		}
		s.schedule()
		return
	}
	if s.checkQueueFaults() {
		// A surgical recovery ran (or escalated to quarantine) this check.
		if s.stopped {
			return
		}
		s.schedule()
		return
	}
	bad := s.unhealthy()
	if bad && s.lastBad {
		s.lastBad = false
		s.decide("wedged")
		if s.stopped {
			return
		}
	} else {
		s.lastBad = bad
	}
	s.schedule()
}

// observeEvidence assembles the misbehaviour counters from the proxies,
// the confinement layer and the device ground truth into one policy
// snapshot. It reports whether the snapshot convicted the driver.
func (s *Supervisor) observeEvidence() bool {
	ev := policy.Evidence{StaleEpoch: s.staleHarvest}
	if p := s.proc; p != nil {
		if p.Blk != nil {
			ev.BarrierViolations = p.Blk.BarrierViolations()
			ev.FlushesAcked = p.Blk.FlushesAcked
		}
		if p.qp != nil {
			ev.StaleEpoch += p.qp.StaleEpochDowncalls()
		}
		if p.DF != nil {
			ev.StormTrips = p.DF.StormResponses
		}
	}
	// Device ground truth, when the supervised device exports it: barriers
	// the proxy saw acked versus flushes the device says it executed.
	if gt, ok := s.Dev.(interface{ FlushGroundTruth() (uint64, uint64) }); ok {
		flushes, _ := gt.FlushGroundTruth()
		ev.FlushesExecuted = flushes
	} else {
		ev.FlushesExecuted = ev.FlushesAcked // no ground truth — no lie to find
	}
	return s.Policy.Observe(ev)
}

// unhealthy applies the per-queue progress watermarks: queue q is wedged
// when its own upcall ring holds a backlog while its own served counter
// (downcalls + doorbells produced by that queue's service thread) has not
// moved since the previous check. Saturation with progress is healthy
// backpressure; a deep ring with zero progress is a wedge — and tracking
// it per queue means one hung service thread is visible even while
// siblings serve at full rate.
func (s *Supervisor) unhealthy() bool {
	nq := s.proc.Chan.NumQueues()
	if len(s.lastServedQ) != nq {
		s.lastServedQ = make([]uint64, nq)
		for q := 0; q < nq; q++ {
			s.lastServedQ[q] = s.proc.Chan.QueueStats(q).Served()
		}
		return false
	}
	limit := s.BacklogLimit / nq
	if limit < 8 {
		limit = 8
	}
	wedged := false
	for q := 0; q < nq; q++ {
		served := s.proc.Chan.QueueStats(q).Served()
		if s.proc.Chan.QueuePending(q) >= limit && served == s.lastServedQ[q] {
			wedged = true
		}
		s.lastServedQ[q] = served
	}
	if wedged {
		return true
	}
	// Active probe for netdev drivers: the interruptible sync ioctl.
	if s.ifName != "" {
		if ifc, err := s.K.Net.Iface(s.ifName); err == nil && ifc.IsUp() && !ifc.Recovering() {
			if _, err := ifc.Ioctl(api.IoctlGetMIIStatus, nil); err != nil {
				return true
			}
		}
	}
	return false
}

// checkQueueFaults scans the per-queue IOMMU sub-domain fault counters
// (stream q+1 for driver queue q) for deltas since the previous check and
// answers each afflicted queue with a surgical recovery. It reports whether
// any queue was recovered (or the recovery escalated to full quarantine),
// so the caller can skip the wedge heuristics for this period.
func (s *Supervisor) checkQueueFaults() bool {
	if s.recovering || s.backingOff || s.proc == nil || s.proc.DF == nil {
		return false
	}
	bdf := s.Dev.BDF()
	if len(s.lastStreamFaults) != s.Queues {
		s.baselineQueueFaults()
		return false
	}
	acted := false
	for q := 0; q < s.Queues; q++ {
		n := s.K.M.IOMMU.StreamFaults(bdf, q+1)
		if n > s.lastStreamFaults[q] {
			delta := n - s.lastStreamFaults[q]
			s.lastStreamFaults[q] = n
			s.surgical(q, delta)
			acted = true
			if s.stopped {
				return true
			}
			continue
		}
		s.lastStreamFaults[q] = n
	}
	return acted
}

// surgical is the single-queue recovery path: queue q raised sub-domain
// faults, so exactly that queue is killed (its DMA sub-domain revoked),
// parked, graded and re-armed — the driver process and every sibling queue
// keep running throughout. A block queue replays its request log; a NIC
// queue replays nothing, its queued transmits staying with the live driver.
// The flight ring reads the surgical timeline in order: kill -> park ->
// verdict -> replay -> drain. A queue that re-offends past
// Policy.Cfg.QueueOffenseLimit escalates to the full quarantine verdict.
func (s *Supervisor) surgical(q int, faults uint64) {
	cause := fmt.Sprintf("%d sub-domain faults", faults)
	// Kill: the queue's DMA dies first, before any grading — a faulting
	// queue must not get another descriptor fetch in.
	s.Flight.Recordf(trace.FKill, "%s q%d: DMA revoked (%s)", s.Name, q, cause)
	if err := s.proc.DF.RevokeQueueDMA(q + 1); err != nil {
		s.K.Logf("supervisor: %s q%d DMA revoke failed: %v", s.Name, q, err)
	}
	// Park: proxy first (advisory epoch frame to the runtime), then the
	// kernel object (epoch bump + drain watermark, records FPark).
	qp := s.proc.qp
	if qp != nil {
		qp.ParkQueue(q)
	}
	for _, rd := range s.recoverables() {
		rd.BeginQueueRecovery(q)
	}
	// Verdict: grade the offense. Repeat offenders escalate to the
	// device-wide quarantine path.
	d := s.Policy.OnQueueFault(s.K.M.Now(), q, cause)
	s.LastVerdict = d.Verdict
	if d.Verdict == policy.Quarantine {
		s.quarantine(d.Reason)
		return
	}
	s.K.Logf("supervisor: %s q%d surgically recovered: %s", s.Name, q, d.Reason)
	// Replay: re-arm the sub-domain (mappings survived the revoke), bump
	// the queue epoch through the proxy (stale-completion fence), and
	// release the kernel queue — a block queue's shadow log replays under
	// original tags, then the drain leg closes the timeline.
	if err := s.proc.DF.RearmQueueDMA(q + 1); err != nil {
		s.K.Logf("supervisor: %s q%d DMA re-arm failed: %v", s.Name, q, err)
	}
	if qp != nil {
		qp.RearmQueue(q)
	}
	replayed := 0
	for _, rd := range s.recoverables() {
		if n, rerr := rd.CompleteQueueRecovery(q); rerr != nil {
			s.K.Logf("supervisor: %s q%d recovery failed: %v", s.Name, q, rerr)
		} else {
			replayed += n
		}
	}
	s.LastReplayed = replayed
	s.QueueRecoveries++
	s.LastRecoveryAt = s.K.M.Now()
}

// recoverables returns the supervised kernel-side device objects behind the
// unified api.RecoverableDevice contract — whichever of the block device and
// the network interface this supervisor watches. The class-specific legs
// (proxy park/re-arm, adoption binding, quarantine) stay per class; the
// epoch/park/replay protocol itself is driven through this one surface.
func (s *Supervisor) recoverables() []api.RecoverableDevice {
	var out []api.RecoverableDevice
	if s.blkName != "" {
		if d, err := s.K.Blk.Dev(s.blkName); err == nil {
			out = append(out, d)
		}
	}
	if s.ifName != "" {
		if ifc, err := s.K.Net.Iface(s.ifName); err == nil {
			out = append(out, ifc)
		}
	}
	return out
}

// decide grades one detection through the policy engine and executes the
// verdict. cause is the detector's trail for the log.
func (s *Supervisor) decide(cause string) {
	if s.stopped || s.proc == nil || s.recovering || s.backingOff {
		return
	}
	s.Flight.Recordf(trace.FDetect, "%s: %s", s.Name, cause)
	now := s.K.M.Now()
	s.Policy.Cfg.WindowBudget = s.MaxRestarts
	d := s.Policy.OnDeath(now, s.standby != nil && !s.standby.Killed(), cause)
	s.LastVerdict = d.Verdict
	switch d.Verdict {
	case policy.Quarantine:
		s.quarantine(d.Reason)
	case policy.Failover:
		if !s.failover() {
			s.recover()
		}
	case policy.RestartBackoff:
		s.K.Logf("supervisor: %s %s; restarting in %v (generation %d)",
			s.Name, d.Reason, d.Delay, s.Restarts+1)
		// Kill now — the device parks under recovery for the whole wait —
		// and respawn when the pacing delay expires.
		s.proc.Kill()
		s.Flight.Recordf(trace.FBackoff, "pacing restart by %v (generation %d)", d.Delay, s.Restarts+1)
		s.backingOff = true
		s.K.M.Loop.After(d.Delay, func() {
			s.backingOff = false
			if s.stopped {
				return
			}
			s.recover()
		})
	default:
		s.recover()
	}
}

// recover kills the wedged (or buries the dead) process and brings up a
// fresh one against the same device model: the kill routes the supervised
// devices into shadow recovery (Recoverable), the fresh probe adopts them,
// and CompleteRecovery replays bring-up and the pending request log. The
// respawn takes startupCost of wall-clock time — booting the UML
// environment is real work — during which the devices stay parked; this is
// exactly the window a hot standby (ArmStandby) pre-pays.
func (s *Supervisor) recover() {
	if s.stopped || s.proc == nil || s.recovering {
		return
	}
	s.recovering = true
	s.Restarts++
	s.Policy.RecordRestart(s.K.M.Now())
	s.K.Logf("supervisor: %s down; restarting (generation %d)", s.Name, s.Restarts)
	s.harvestStale(s.proc)
	s.proc.Kill() // no-op if already dead; devices enter recovery either way
	gen := s.Restarts
	s.K.M.Loop.After(startupCost, func() {
		defer func() { s.recovering = false }()
		if s.stopped {
			return
		}
		s.Flight.Recordf(trace.FRespawn, "generation %d spawning", gen)
		if err := s.start(gen); err != nil {
			s.K.Logf("supervisor: restart of %s failed: %v", s.Name, err)
			s.quarantine(fmt.Sprintf("respawn failed: %v", err))
			return
		}
		s.completeRecovery()
	})
}

// failover promotes the armed hot standby instead of respawning: the
// device object moves to the standby's pre-registered proxy, the standby
// probes the (now orphaned) hardware, and replay proceeds as in any
// recovery — but the respawn cost was paid before the kill. It reports
// false if no promotion was possible (the caller falls back to a cold
// restart); activation failures after promotion are handled internally by
// killing the standby, which re-parks the device for the next grading.
func (s *Supervisor) failover() bool {
	sb := s.standby
	if sb == nil || sb.Killed() {
		s.standby = nil
		return false
	}
	if s.stopped || s.proc == nil || s.recovering {
		return false
	}
	s.recovering = true
	defer func() { s.recovering = false }()
	s.harvestStale(s.proc)
	s.proc.Kill() // no-op if already dead; parks the devices, bumps the epoch
	s.Flight.Recordf(trace.FPromote, "promoting hot standby %s", sb.Name)
	d, err := s.K.Blk.PromoteStandby(s.blkName)
	if err != nil {
		s.K.Logf("supervisor: block failover of %s failed: %v", s.blkName, err)
		return false
	}
	sb.Blk.Bind(d)
	s.Restarts++
	s.Failovers++
	s.Policy.RecordRestart(s.K.M.Now())
	s.K.Logf("supervisor: %s down; promoting hot standby %s (generation %d)",
		s.Name, sb.Name, s.Restarts)
	s.standby = nil
	s.proc = sb
	s.lastBad = false
	s.lastServedQ = nil
	s.baselineQueueFaults()
	sb.Recoverable = true
	sb.OnDeath = s.onDeath
	if err := sb.ActivateDriver(); err != nil {
		// The standby could not bring up the orphaned hardware: kill it,
		// which re-parks the device (BeginRecovery) and routes the next
		// grading through the cold-restart path.
		s.K.Logf("supervisor: standby activation of %s failed: %v", sb.Name, err)
		sb.Kill()
		return true
	}
	s.completeRecovery()
	// Re-arm for the next fault (best effort — a failed re-arm just means
	// the next death takes the cold path).
	if err := s.ArmStandby(); err != nil {
		s.K.Logf("supervisor: re-arming standby for %s failed: %v", s.Name, err)
	}
	return true
}

// completeRecovery replays bring-up and the block request log into the
// adopted (or promoted) incarnation; parked work drains behind it. A
// failure means the new incarnation is broken too — kill it, which
// re-enters recovery bounded by the policy window.
func (s *Supervisor) completeRecovery() {
	s.LastReplayed = 0
	for _, rd := range s.recoverables() {
		n, rerr := rd.CompleteRecovery()
		if rerr != nil {
			s.K.Logf("supervisor: recovery of %s failed: %v", s.Name, rerr)
			s.proc.Kill()
			return
		}
		s.LastReplayed += n
	}
	s.LastRecoveryAt = s.K.M.Now()
	if s.OnRestart != nil {
		s.OnRestart(s.Restarts)
	}
}

// harvestStale folds a dying incarnation's stale-epoch counters into the
// supervisor's running total before its proxies are replaced (evidence for
// the policy plane: a flood means a zombie replaying traffic).
func (s *Supervisor) harvestStale(p *Process) {
	if p != nil && p.qp != nil {
		s.staleHarvest += p.qp.StaleEpochDowncalls()
	}
}

// quarantine executes the give-up verdict: supervision ends, the driver is
// barred (killed if still alive, its standby torn down), and the supervised
// devices are quarantined — they survive, down and driverless, with every
// parked and logged request failed cleanly with ErrDown rather than left
// waiting for a restart that will never come.
func (s *Supervisor) quarantine(reason string) {
	s.K.Logf("supervisor: %s quarantined: %s", s.Name, reason)
	s.Flight.Recordf(trace.FQuarantine, "%s: %s", s.Name, reason)
	s.stopped = true
	s.Quarantined = true
	s.LastVerdict = policy.Quarantine
	s.Policy.Convict(reason)
	s.DisarmStandby()
	if s.proc != nil && !s.proc.Killed() {
		s.proc.Kill()
	}
	if s.blkName != "" {
		s.K.Blk.Quarantine(s.blkName)
	}
	if s.ifName != "" {
		s.K.Net.Quarantine(s.ifName)
	}
}
