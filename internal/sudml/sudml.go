// Package sudml is SUD-UML (§3.3, §4): the user-space runtime that lets an
// unmodified driver run in an untrusted process. It implements the same
// Linux-like api.Env the real kernel implements, but every operation is
// serviced through the safe PCI device access module and the uchan RPC
// channel instead of by direct kernel privilege:
//
//   - pci_enable_device / config access → filtered ctl-file syscalls
//   - ioremap → the mmio device file
//   - dma_alloc_coherent / caching pool → the dma_coherent / dma_caching
//     files, which also map the pages into the device's IOMMU domain at the
//     driver's own virtual address (§4.1)
//   - request_irq → interrupt upcalls, acknowledged with the interrupt_ack
//     downcall (Figure 7)
//   - netif_rx / carrier changes → downcalls; received payloads travel as
//     shared-buffer references (zero copy, §3.1.2)
//
// A Process models one driver process: it has its own CPU account, Unix
// UID, resource limits, and can be killed and restarted without kernel harm
// (§4.1). The Supervisor (shadow.go) takes that last property the rest of
// the way — the shadow-driver restart the paper sketches in §2 and §5.2:
// a supervised process that dies is respawned against the same device, the
// restarted driver adopts the surviving kernel objects, and the logged
// in-flight work is replayed so applications never see the kill.
package sudml

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/fifo"
	"sud/internal/kernel"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/proxy/audioproxy"
	"sud/internal/proxy/blkproxy"
	"sud/internal/proxy/ethproxy"
	"sud/internal/proxy/pciaccess"
	"sud/internal/proxy/protocol"
	"sud/internal/proxy/wifiproxy"
	"sud/internal/sim"
	"sud/internal/trace"
	"sud/internal/uchan"
)

// RuntimeMemoryBytes is SUD-UML's resident footprint per driver process
// (~3 MB, Figure 5 caption).
const RuntimeMemoryBytes = 3 << 20

// startupCost is the one-time CPU cost of starting the UML environment.
const startupCost sim.Duration = 100 * sim.Microsecond

// Process is one untrusted driver process.
type Process struct {
	Name string
	UID  int

	K    *kernel.Kernel
	DF   *pciaccess.DeviceFile
	Chan *uchan.MultiChan
	Acct *sim.CPUAccount
	Eth  *ethproxy.Proxy

	// QueueAccts are the per-queue service-thread CPU accounts; index q
	// is the thread draining uchan ring q. Single-queue processes have
	// exactly one, named like the process account.
	QueueAccts []*sim.CPUAccount

	driver     api.Driver
	inst       api.Instance
	netdev     api.NetDevice
	wifidev    api.WifiDevice
	audiodev   api.AudioDevice
	blockdev   api.BlockDevice
	ctl        api.CtlHandler
	Wifi       *wifiproxy.Proxy
	Audio      *audioproxy.Proxy
	Blk        *blkproxy.Proxy
	qp         queueProxy // Eth or Blk: what the supervisor parks and re-arms
	irqHandler func()
	ki         *ethproxy.KernelIface

	// blkName, when set, is the name RegisterBlockDev registers under in
	// place of the one the driver asks for: a supervisor's respawn must
	// come back as the device it recovers, which the uniquing template
	// may have named differently.
	blkName string

	// sliceAddrs maps handed-out DMA slice identities (pointer to first
	// byte) to bus addresses, enabling zero-copy netif_rx.
	sliceAddrs map[*byte]mem.Addr

	// hold is, per ring, the upcalls the driver's hardware queue had no
	// room for: transmits or block submissions, since a process drives
	// one class. They drain after the interrupt handler reclaims space,
	// or when the ring's retry timer fires. A held flush barrier keeps its
	// frame decoded in Args (see handleBlkSubmit), because an upcall's
	// Data is valid only while it is handled. tryHeld and dropHeld are the
	// class's, bound when it registers (bindHold).
	hold     []holdQ
	tryHeld  func(q int, m uchan.Msg) bool
	dropHeld func(q int, m uchan.Msg)

	// recycleAddrs is handleRecycle's scratch for the page list it hands
	// the driver's PageRecycler, which must not keep it past the call.
	recycleAddrs []mem.Addr

	// blkComp accumulates, per queue, I/O completion references awaiting
	// the batched OpCompleteBatch downcall — the block analogue of
	// rxBatch, flushed on the same dispatch boundaries. Single-queue
	// channels bypass batching, keeping one message per completion.
	blkComp [][]blkproxy.CompRef

	// flushMeta maps an in-flight flush barrier's kernel tag to the
	// framing the OpFlush upcall carried; the completion echoes it back
	// as OpFlushDone so the proxy's barrier accounting can verify it.
	flushMeta map[uint64]blkproxy.FlushOp

	// qep mirrors, per queue, the epoch the kernel last armed the queue
	// at (OpQueueEpoch frames from a surgical quarantine); the runtime
	// stamps it on every completion it sends for that queue, so the
	// proxy can reject completions minted for a dead incarnation of one
	// queue without touching its siblings.
	qep []uint64

	// rxBatch accumulates, per queue, received-frame references awaiting
	// the batched OpNetifRxBatch downcall: up to ethproxy.MaxRxBatch
	// frames ride one ring slot. Batches flush when full and at the end
	// of the dispatch that produced them, so delivery never waits on
	// future traffic. Single-queue channels bypass batching entirely —
	// the Figure 8 transport is unchanged.
	rxBatch [][]ethproxy.RxRef

	// NoRxBatch disables RX batch framing (ablation): every received
	// frame crosses the channel as its own OpNetifRx downcall, one
	// message — and with uchan batching also disabled, one doorbell —
	// per frame.
	NoRxBatch bool

	// kicker is the probed driver's staged-doorbell flush hook
	// (api.BatchKicker), discovered once at probe. When set, a drain-end
	// hook flushes the driver's staged doorbells — and the completions or
	// frames the flush produced — on the same drain that serviced the
	// batch. Nil for stock drivers: the transport is untouched.
	kicker api.BatchKicker

	// Counters.
	ZeroCopyRx, BouncedRx uint64
	RxBatches             uint64
	BlkBatches            uint64
	XmitRingDrops         uint64
	BadFlushFrames        uint64
	BadRecycleFrames      uint64
	BadQStateFrames       uint64

	// Recoverable marks the process as supervised: on death its devices
	// enter shadow recovery (parked, adoptable) instead of being
	// unregistered. Set by the supervisor before traffic flows.
	Recoverable bool

	// OnDeath, if set, runs once at the end of Kill — the supervisor's
	// immediate death notification (SIGCHLD, in effect).
	OnDeath func()

	// Flight is the supervisor's per-device flight recorder (nil when
	// unsupervised; records are nil-safe). Kill logs here first, so the
	// timeline reads kill → park → detect → verdict → ...
	Flight *trace.Flight

	// standby marks a hot-standby shell: spawned and (possibly) armed, but
	// with the driver probe deferred to promotion. Cleared by
	// ActivateDriver.
	standby bool

	killed bool
}

// queueProxy is what the supervisor drives on the process's multi-queue
// class proxy: the surgical park and re-arm, and the stale-epoch evidence.
type queueProxy interface {
	ParkQueue(q int)
	RearmQueue(q int)
	StaleEpochDowncalls() uint64
}

// holdQ is one ring's hold queue and its retry timer.
type holdQ struct {
	msgs  fifo.Queue[uchan.Msg]
	retry sim.Event
}

// Standby reports whether the process is an unactivated hot-standby shell.
func (p *Process) Standby() bool { return p.standby }

// Start launches a single-queue driver process for dev running drv under
// the given UID. It models the §4.1 flow: SUD-UML finds the device in sysfs,
// asks the kernel to start a proxy driver, opens a uchan, and probes the
// driver.
func Start(k *kernel.Kernel, dev pci.Device, drv api.Driver, name string, uid int) (*Process, error) {
	return StartQ(k, dev, drv, name, uid, 1)
}

// StartQ launches a driver process with `queues` uchan ring pairs — one
// service thread (and CPU account) per simulated CPU/queue, plus the shared
// urgent lane for forwarded interrupts. queues=1 is exactly Start.
func StartQ(k *kernel.Kernel, dev pci.Device, drv api.Driver, name string, uid, queues int) (*Process, error) {
	return startQ(k, dev, drv, name, uid, queues, "")
}

// startQ is StartQ registering the driver's block device as blkName when
// that is set.
func startQ(k *kernel.Kernel, dev pci.Device, drv api.Driver, name string, uid, queues int, blkName string) (*Process, error) {
	p, err := newShellQ(k, dev, drv, name, uid, queues, false)
	if err != nil {
		return nil, err
	}
	p.blkName = blkName
	if err := p.probeDriver(); err != nil {
		return nil, err
	}
	return p, nil
}

// StartStandbyQ spawns a driver process SHELL in hot-standby mode: the
// process exists — device file open, uchan rings and service threads up,
// the startup cost paid — but the driver is deliberately NOT probed, since
// bringing up hardware the live primary still owns would wreck it (an NVMe
// probe resets the controller). The supervisor arms the standby's proxy
// against the live block device (ArmBlockStandby) and calls ActivateDriver
// at promotion, when the hardware is orphaned — so at failover time the
// respawn cost is already sunk and only probe + bring-up + replay remain on
// the kill-to-drained path.
func StartStandbyQ(k *kernel.Kernel, dev pci.Device, drv api.Driver, name string, uid, queues int) (*Process, error) {
	p, err := newShellQ(k, dev, drv, name, uid, queues, true)
	if err != nil {
		return nil, err
	}
	p.standby = true
	return p, nil
}

// newShellQ builds the process shell — everything in the §4.1 flow up to
// (but excluding) the driver probe. A standby shell opens the device file
// detached: its DMA mappings build up in its own IOMMU domain, but the
// device's bus identity stays with the live primary until promotion.
func newShellQ(k *kernel.Kernel, dev pci.Device, drv api.Driver, name string, uid, queues int, standby bool) (*Process, error) {
	cfg := dev.Config()
	if !drv.Match(cfg.VendorID(), cfg.DeviceID()) {
		return nil, fmt.Errorf("sudml: driver %s does not match device %s", drv.Name(), dev.BDF())
	}
	accts := k.M.CPU.QueueAccounts("driver:"+name, queues)
	acct := accts[0]
	var df *pciaccess.DeviceFile
	if standby {
		df = pciaccess.OpenDetached(k, dev, uid, acct)
	} else {
		df = pciaccess.Open(k, dev, uid, acct)
	}
	ch := uchan.NewMulti(k.M.Loop, k.Acct, accts)
	p := &Process{
		Name:       name,
		UID:        uid,
		K:          k,
		DF:         df,
		Chan:       ch,
		Acct:       acct,
		QueueAccts: accts,
		driver:     drv,
		sliceAddrs: make(map[*byte]mem.Addr),
		hold:       make([]holdQ, len(accts)),
		rxBatch:    make([][]ethproxy.RxRef, len(accts)),
		blkComp:    make([][]blkproxy.CompRef, len(accts)),
		flushMeta:  make(map[uint64]blkproxy.FlushOp),
		qep:        make([]uint64, len(accts)),
	}
	ch.SetDriverHandler(p.dispatch)
	ch.SetKernelHandler(p.routeDowncall)
	acct.Charge(startupCost)
	return p, nil
}

// probeDriver runs the driver's probe inside the process. For a normal
// start this happens at spawn; for a hot standby it is deferred to
// promotion (ActivateDriver).
func (p *Process) probeDriver() error {
	inst, err := p.driver.Probe(&env{p: p})
	if err != nil {
		p.DF.Close()
		p.Chan.Kill()
		return fmt.Errorf("sudml: probe %s: %w", p.driver.Name(), err)
	}
	p.inst = inst
	if h, ok := inst.(api.CtlHandler); ok {
		p.ctl = h
	}
	p.wireFastPath()
	p.Chan.Flush() // deliver any downcalls queued during probe
	return nil
}

// wireFastPath installs the drain-end hook when the probed driver stages
// doorbells (api.BatchKicker). KickPending runs first — flushing staged TX
// tails / SQ tails may complete commands or surface frames — and the batches
// those produced flush right after, so everything rides the drain that
// serviced the upcalls. Stock drivers install nothing.
func (p *Process) wireFastPath() {
	var k api.BatchKicker
	if kk, ok := p.netdev.(api.BatchKicker); ok {
		k = kk
	} else if kk, ok := p.blockdev.(api.BatchKicker); ok {
		k = kk
	} else if kk, ok := p.inst.(api.BatchKicker); ok {
		k = kk
	}
	if k == nil {
		return
	}
	p.kicker = k
	p.Chan.SetOnDrainEnd(func() {
		if p.killed {
			return
		}
		k.KickPending()
		p.flushRxBatches()
		p.flushBlkComps()
	})
}

// kickPending flushes the driver's staged doorbells from paths that run
// outside an upcall drain (retry timers, driver timers).
func (p *Process) kickPending() {
	if p.kicker != nil && !p.killed {
		p.kicker.KickPending()
	}
}

// ActivateDriver probes the driver inside a promoted standby shell. The
// primary is dead and its kernel object already rebound to this process's
// proxy, so the probe's RegisterBlockDev binds the driver instance to the
// pre-armed proxy instead of registering anew.
func (p *Process) ActivateDriver() error {
	if !p.standby {
		return fmt.Errorf("sudml: %s is not a standby shell", p.Name)
	}
	if p.killed {
		return fmt.Errorf("sudml: standby %s is dead", p.Name)
	}
	p.standby = false
	// The dead primary has detached; the device's bus identity now points
	// at this process's domain, making its pre-built DMA mappings live.
	p.DF.AttachDevice()
	return p.probeDriver()
}

// ArmBlockStandby pre-registers this standby shell with the block core for
// the named live device: the proxy (and its IOMMU-mapped slot pools) is
// created now, the geometry identity check runs now, and only the device
// binding waits for promotion.
func (p *Process) ArmBlockStandby(name string, geom api.BlockGeometry) error {
	if !p.standby {
		return fmt.Errorf("sudml: %s is not a standby shell", p.Name)
	}
	if p.Blk != nil {
		return fmt.Errorf("sudml: standby %s already armed", p.Name)
	}
	ki := &blkproxy.KernelIface{Acct: p.K.Acct, Mem: p.K.M.Mem, Blk: p.K.Blk}
	proxy, err := blkproxy.NewStandby(ki, p.DF, p.Chan, name, geom)
	if err != nil {
		return err
	}
	p.Blk, p.qp = proxy, proxy
	return nil
}

// Kill terminates the driver process (kill -9): the uchan dies, the device
// file tears down DMA mappings and interrupts, and the network interface
// disappears. The kernel and other processes are unaffected — the device
// can still attempt DMA, which now faults in the IOMMU.
//
// A supervised (Recoverable) process dies differently at the kernel edge:
// its netdev and block devices enter shadow recovery — parked and awaiting
// adoption by the restarted process — instead of being unregistered, so
// applications holding them see a stall, not an error. Wifi and audio
// devices have no recovery path yet and unregister either way.
func (p *Process) Kill() {
	if p.killed {
		return
	}
	p.killed = true
	p.Flight.Recordf(trace.FKill, "%s (uid %d) killed", p.Name, p.UID)
	p.Chan.Kill()
	p.DF.Close()
	if p.ki != nil && p.ki.IfaceNm != "" {
		if p.Recoverable {
			_, _ = p.K.Net.BeginRecovery(p.ki.IfaceNm)
		} else {
			p.K.Net.Unregister(p.ki.IfaceNm)
		}
	}
	if p.Wifi != nil {
		p.K.Wifi.Unregister(p.Wifi.Ifc.Name)
	}
	if p.Audio != nil {
		p.K.Audio.Unregister(p.Audio.PCM.Name)
	}
	if p.Blk != nil && p.Blk.Dev != nil {
		// A standby proxy that was never bound to a device (armed, then
		// disarmed or superseded) has nothing at the kernel edge to
		// recover or unregister.
		if p.Recoverable {
			_, _ = p.K.Blk.BeginRecovery(p.Blk.Dev.Name)
		} else {
			p.K.Blk.Unregister(p.Blk.Dev.Name)
		}
	}
	p.K.Logf("sudml: driver process %s (uid %d) killed", p.Name, p.UID)
	if h := p.OnDeath; h != nil {
		p.OnDeath = nil
		h()
	}
}

// Killed reports process death.
func (p *Process) Killed() bool { return p.killed }

// Ctl invokes the driver instance's generic control surface through the SUD
// ctl channel (a synchronous, interruptible upcall) — the path classes
// without a dedicated proxy use, e.g. the USB host class.
func (p *Process) Ctl(cmd uint32, arg []byte) ([]byte, error) {
	reply, err := p.Chan.Send(uchan.Msg{Op: protocol.OpCtl, Args: [6]uint64{uint64(cmd)}, Data: arg})
	if err != nil {
		return nil, err
	}
	if reply.Args[0] != 0 {
		return nil, fmt.Errorf("sudml: ctl failed: %s", reply.Data)
	}
	return reply.Data, nil
}

// Hang simulates the §3.1.1 liveness attack: the process stops servicing
// its uchan (infinite loop). Sync upcalls become interruptible errors;
// async upcalls pile up until the ring reports the driver hung.
func (p *Process) Hang() { p.Chan.SetHung(true) }

// Unhang resumes servicing (for tests).
func (p *Process) Unhang() { p.Chan.SetHung(false) }

// HangQueue wedges a single queue's service thread (§3.1.1 generalised):
// sibling queues, the urgent lane and the control ring keep servicing.
func (p *Process) HangQueue(q int) { p.Chan.HangQueue(q, true) }

// routeDowncall demultiplexes driver→kernel messages to the class proxy (or
// the common handlers) by operation range. Runs in kernel context; q is the
// ring the downcall arrived on.
func (p *Process) routeDowncall(q int, m uchan.Msg) {
	switch {
	case m.Op == protocol.OpIRQAck:
		p.DF.Ack()
	case m.Op >= protocol.EthBase && m.Op < protocol.WifiBase:
		if p.Eth != nil {
			p.Eth.HandleDowncall(q, m)
		}
	case m.Op >= protocol.WifiBase && m.Op < protocol.AudioBase:
		if p.Wifi != nil {
			p.Wifi.HandleDowncall(m)
		}
	case m.Op >= protocol.AudioBase && m.Op < protocol.BlockBase:
		if p.Audio != nil {
			p.Audio.HandleDowncall(m)
		}
	case m.Op >= protocol.BlockBase:
		if p.Blk != nil {
			p.Blk.HandleDowncall(q, m)
		}
	}
}

// dispatch services one upcall in driver-process context; q is the ring the
// message arrived on (its service thread runs the handler).
func (p *Process) dispatch(q int, m uchan.Msg) (uchan.Msg, bool) {
	if p.killed {
		return uchan.Msg{}, false
	}
	if m.Op >= protocol.WifiBase && m.Op < protocol.AudioBase && p.wifidev != nil {
		return p.dispatchWifi(m)
	}
	if m.Op >= protocol.AudioBase && m.Op < protocol.BlockBase && p.audiodev != nil {
		return p.dispatchAudio(m)
	}
	if m.Op >= protocol.BlockBase && p.blockdev != nil {
		return p.dispatchBlock(q, m)
	}
	switch m.Op {
	case protocol.OpCtl:
		if p.ctl == nil {
			return uchan.Msg{Seq: m.Seq, Args: [6]uint64{1}, Data: []byte("no ctl handler")}, true
		}
		p.Acct.Charge(sim.CostWorkerDispatch)
		out, err := p.ctl.Ctl(uint32(m.Args[0]), m.Data)
		return replyData(m, out, err)
	case ethproxy.OpOpen:
		// Open may block (the e1000e sleeps probing interrupt modes,
		// §4.2), so the idle thread hands it to a worker.
		p.Acct.Charge(sim.CostWorkerDispatch)
		return replyErr(m, p.netdev.Open())
	case ethproxy.OpStop:
		p.Acct.Charge(sim.CostWorkerDispatch)
		return replyErr(m, p.netdev.Stop())
	case ethproxy.OpIoctl:
		p.Acct.Charge(sim.CostWorkerDispatch)
		out, err := p.netdev.DoIoctl(uint32(m.Args[0]), m.Data)
		return replyData(m, out, err)
	case ethproxy.OpXmit:
		p.K.M.Trace.Event(trace.ClassNetTx, q, m.Args[2], trace.HopUchanDeq)
		p.submitHeld(q, m)
		return ack(m)
	case ethproxy.OpPageRecycle:
		p.handleRecycle(q, m, ethproxy.OpRecycleAck)
		return ack(m)
	case ethproxy.OpQueueEpoch:
		p.handleQueueEpoch(m)
		return ack(m)
	case protocol.OpInterrupt:
		if p.irqHandler != nil {
			p.irqHandler()
		}
		// Block completions the handler collected must be DELIVERED —
		// flushed through the ring into the proxy's guard copy — before
		// held submissions run: a drained submission reuses the driver's
		// pool slots, and a still-undelivered zero-copy completion
		// reference into a reused slot would read the new request's
		// bytes (the slot-reuse cousin of the §3.1.2 TOCTOU). Net
		// processes skip this: their RX buffers are only overwritten by
		// device DMA, which cannot run inside this dispatch.
		if p.Blk != nil {
			p.flushBlkComps()
			p.Chan.Flush()
		}
		// The handler reclaimed TX descriptors (or drained block
		// completion queues); feed held work in.
		for q := range p.hold {
			p.drainHeld(q)
		}
		// RX frames the handler collected ride out as per-queue batches
		// on the same drain that serviced the interrupt.
		p.flushRxBatches()
		p.flushBlkComps()
		return ack(m)
	default:
		return uchan.Msg{Seq: m.Seq, Args: [6]uint64{1}}, true
	}
}

// dispatchWifi services wireless-class upcalls.
func (p *Process) dispatchWifi(m uchan.Msg) (uchan.Msg, bool) {
	switch m.Op {
	case wifiproxy.OpOpen:
		p.Acct.Charge(sim.CostWorkerDispatch)
		return replyErr(m, p.wifidev.Open())
	case wifiproxy.OpStop:
		p.Acct.Charge(sim.CostWorkerDispatch)
		return replyErr(m, p.wifidev.Stop())
	case wifiproxy.OpScan:
		if err := p.wifidev.StartScan(); err != nil {
			p.K.Logf("[sud:%s] scan failed: %v", p.Name, err)
		}
		return ack(m)
	case wifiproxy.OpAssoc:
		if err := p.wifidev.Associate(string(m.Data)); err != nil {
			// Report failure through the mirrored state path.
			_ = p.Chan.Down(uchan.Msg{Op: wifiproxy.OpDisassociated})
		}
		return ack(m)
	case wifiproxy.OpDisassoc:
		_ = p.wifidev.Disassociate()
		return ack(m)
	case wifiproxy.OpXmit:
		p.Acct.Charge(sim.Copy(len(m.Data)))
		if err := p.wifidev.StartXmit(m.Data); err != nil {
			p.XmitRingDrops++
		}
		return ack(m)
	default:
		return uchan.Msg{Seq: m.Seq, Args: [6]uint64{1}}, true
	}
}

// dispatchAudio services audio-class upcalls.
func (p *Process) dispatchAudio(m uchan.Msg) (uchan.Msg, bool) {
	switch m.Op {
	case audioproxy.OpPrepare:
		p.Acct.Charge(sim.CostWorkerDispatch)
		return replyErr(m, p.audiodev.PrepareStream(int(m.Args[0]), int(m.Args[1]), int(m.Args[2])))
	case audioproxy.OpWritePeriod:
		p.Acct.Charge(sim.Copy(len(m.Data)))
		if err := p.audiodev.WritePeriod(int(m.Args[0]), m.Data); err != nil {
			p.K.Logf("[sud:%s] period write failed: %v", p.Name, err)
		}
		return ack(m)
	case audioproxy.OpTrigger:
		p.Acct.Charge(sim.CostWorkerDispatch)
		return replyErr(m, p.audiodev.Trigger(m.Args[0] == 1))
	case audioproxy.OpPointer:
		pos, err := p.audiodev.Pointer()
		r, ok := replyErr(m, err)
		r.Args[1] = uint64(pos)
		return r, ok
	default:
		return uchan.Msg{Seq: m.Seq, Args: [6]uint64{1}}, true
	}
}

// dispatchBlock services block-class upcalls.
func (p *Process) dispatchBlock(q int, m uchan.Msg) (uchan.Msg, bool) {
	switch m.Op {
	case blkproxy.OpOpen:
		// Open may block (queue creation sleeps); hand it to a worker.
		p.Acct.Charge(sim.CostWorkerDispatch)
		return replyErr(m, p.blockdev.Open())
	case blkproxy.OpStop:
		p.Acct.Charge(sim.CostWorkerDispatch)
		return replyErr(m, p.blockdev.Stop())
	case blkproxy.OpSubmit, blkproxy.OpFlush:
		// Flush barriers ride the same hold-queue machinery as
		// submissions, so a full hardware queue delays — never drops —
		// a barrier, and held work stays in order.
		p.handleBlkSubmit(q, m)
		return ack(m)
	case blkproxy.OpPageRecycle:
		p.handleRecycle(q, m, blkproxy.OpRecycleAck)
		return ack(m)
	case blkproxy.OpQueueEpoch:
		p.handleQueueEpoch(m)
		return ack(m)
	default:
		return uchan.Msg{Seq: m.Seq, Args: [6]uint64{1}}, true
	}
}

// handleQueueEpoch services an OpQueueEpoch upcall (either class): one
// queue's epoch transition from a surgical quarantine. A parked frame is
// advisory and changes nothing here — the kernel enforces the quarantine.
// An armed frame adopts the queue's new epoch for completion stamping and
// drops block work held for the dead incarnation: the block core replays
// its own request log, so re-submitting held submissions (or flushing
// completions gathered before the quarantine) would double-deliver those
// tags. Held transmits stay: the kernel replays no TX frame on a surgical
// re-arm, so each one is still this driver's to send and credit.
func (p *Process) handleQueueEpoch(m uchan.Msg) {
	p.Acct.Charge(sim.CostUMLCall)
	s, err := protocol.DecodeQState(m.Data)
	if err != nil || s.Queue >= len(p.qep) {
		p.BadQStateFrames++
		return
	}
	if s.Parked() {
		return
	}
	p.qep[s.Queue] = uint64(s.Epoch)
	if p.Blk != nil {
		p.hold[s.Queue].msgs.Clear()
	}
	p.blkComp[s.Queue] = p.blkComp[s.Queue][:0]
}

// handleRecycle services an OpPageRecycle upcall (either class): the frame
// names buffer pages the kernel has finished with, remapped back into this
// process's domain. They go to the page-aware driver's pool, and the frame is
// echoed back verbatim as the class's recycle ack so the proxy's epoch check
// can reject credits addressed to a dead incarnation.
func (p *Process) handleRecycle(q int, m uchan.Msg, ackOp uint32) {
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	var buf [protocol.MaxRecyclePages]uint64
	_, pages, err := protocol.DecodeRecycle(buf[:], m.Data)
	if err != nil {
		p.BadRecycleFrames++
		return
	}
	var rec api.PageRecycler
	if r, ok := p.netdev.(api.PageRecycler); ok {
		rec = r
	} else if r, ok := p.blockdev.(api.PageRecycler); ok {
		rec = r
	}
	if rec != nil {
		p.recycleAddrs = p.recycleAddrs[:0]
		for _, pg := range pages {
			p.recycleAddrs = append(p.recycleAddrs, mem.Addr(pg))
		}
		rec.RecyclePages(q, p.recycleAddrs)
	}
	if err := p.Chan.DownQ(q, uchan.Msg{Op: ackOp, Data: m.Data}); err != nil {
		p.BadRecycleFrames++
	}
}

// ack is the bare reply to upcall m.
func ack(m uchan.Msg) (uchan.Msg, bool) { return uchan.Msg{Seq: m.Seq}, true }

// replyErr is the reply to upcall m carrying err's verdict.
func replyErr(m uchan.Msg, err error) (uchan.Msg, bool) {
	r := uchan.Msg{Seq: m.Seq}
	if err != nil {
		r.Args[0] = 1
		r.Data = []byte(err.Error())
	}
	return r, true
}

// replyData is replyErr carrying out as the payload on success.
func replyData(m uchan.Msg, out []byte, err error) (uchan.Msg, bool) {
	r, ok := replyErr(m, err)
	if err == nil {
		r.Data = out
	}
	return r, ok
}

// xmitRetryDelay is the fallback pacing when held work cannot ride on an
// interrupt (the UML qdisc timer).
const xmitRetryDelay = 100 * sim.Microsecond

// maxPendingTx bounds each ring's hold queue.
const maxPendingTx = uchan.RingSlots

// bindHold binds the registering class's try, drop and retry to the hold
// queues, once.
func (p *Process) bindHold(try func(int, uchan.Msg) bool, drop func(int, uchan.Msg), retry func(int)) {
	p.tryHeld, p.dropHeld = try, drop
	for q := range p.hold {
		p.hold[q].retry.Fn = func() { retry(q) }
	}
}

// submitHeld hands upcall m to the driver's hardware queue q. Behind held
// work, or when that queue is full, m is held — its slot unreleased — so a
// full ring backpressures the kernel through shared-pool exhaustion instead
// of dropping work and burning CPU on doomed retries; past maxPendingTx it
// is dropped. Hold queues and retry timers are per ring: one saturated
// hardware queue never stalls a sibling.
func (p *Process) submitHeld(q int, m uchan.Msg) {
	h := &p.hold[q]
	if h.msgs.Len() == 0 && p.tryHeld(q, m) {
		return
	}
	if h.msgs.Len() >= maxPendingTx {
		p.dropHeld(q, m)
		return
	}
	h.msgs.Push(m)
	p.armRetry(q)
}

// armRetry arms ring q's retry timer while work is held there.
func (p *Process) armRetry(q int) {
	if h := &p.hold[q]; h.msgs.Len() > 0 && !h.retry.Pending() {
		p.K.M.Loop.ArmAfter(&h.retry, xmitRetryDelay)
	}
}

// drainHeld feeds ring q's held work to the (hopefully reclaimed) hardware
// queue, in order.
func (p *Process) drainHeld(q int) {
	for h := &p.hold[q]; h.msgs.Len() > 0 && p.tryHeld(q, h.msgs.Peek()); {
		h.msgs.Pop()
	}
}

// retryXmit is the net retry timer's body.
func (p *Process) retryXmit(q int) {
	if p.killed {
		return
	}
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	p.drainHeld(q)
	p.kickPending()
	p.Chan.Flush()
	p.armRetry(q)
}

// retryBlk is the block retry timer's body: undelivered completion
// references go out before held submissions reuse their slots (see the
// OpInterrupt dispatch for the reuse hazard), and again after.
func (p *Process) retryBlk(q int) {
	if p.killed {
		return
	}
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	p.flushBlkComps()
	p.Chan.Flush()
	p.drainHeld(q)
	p.kickPending()
	p.flushBlkComps()
	p.Chan.Flush()
	p.armRetry(q)
}

// tryXmit attempts one transmit on hardware queue q; it reports false if the
// ring was full (the message should be held). Invalid references complete
// immediately.
func (p *Process) tryXmit(q int, m uchan.Msg) bool {
	phys, ok := p.DF.PhysFor(mem.Addr(m.Args[0]))
	if !ok {
		p.dropXmit(q, m)
		return true
	}
	frame, ok := p.K.M.Mem.Slice(phys, int(m.Args[1]))
	if !ok {
		p.dropXmit(q, m)
		return true
	}
	var err error
	if mq, isMQ := p.netdev.(api.MultiQueueNetDevice); isMQ {
		err = mq.StartXmitQ(frame, q)
	} else {
		err = p.netdev.StartXmit(frame)
	}
	if err != nil {
		return false
	}
	p.K.M.Trace.Event(trace.ClassNetTx, q, m.Args[2], trace.HopDoorbell)
	p.xmitDone(q, m.Args[2])
	return true
}

// dropXmit credits a transmit the runtime cannot send, so the proxy
// releases its slot.
func (p *Process) dropXmit(q int, m uchan.Msg) {
	p.XmitRingDrops++
	p.xmitDone(q, m.Args[2])
}

func (p *Process) xmitDone(q int, slot uint64) {
	p.K.M.Trace.Event(trace.ClassNetTx, q, slot, trace.HopDrvComplete)
	if err := p.Chan.DownQ(q, uchan.Msg{Op: ethproxy.OpXmitDone, Args: [6]uint64{slot}}); err != nil {
		p.XmitRingDrops++
	}
}

// handleBlkSubmit hands one submission or flush barrier to the driver's
// hardware queue q through its hold queue. A flush barrier's frame is
// decoded here, while the upcall's Data is valid, and travels on in Args.
func (p *Process) handleBlkSubmit(q int, m uchan.Msg) {
	if m.Op == blkproxy.OpFlush {
		fo, err := blkproxy.DecodeFlushOp(m.Data)
		if err != nil {
			// The frame is kernel-written, so this cannot happen today —
			// but a dropped barrier wedges the device (the kernel-side
			// barrier waits forever), so the drop is counted and logged,
			// never silent.
			p.BadFlushFrames++
			p.K.Logf("sudml: %s dropped undecodable flush frame (%v)", p.Name, err)
			return
		}
		m = uchan.Msg{Op: blkproxy.OpFlush, Args: [6]uint64{fo.Barrier, fo.Epoch, fo.Tag}}
	} else {
		p.K.M.Trace.Event(trace.ClassBlk, q, m.Args[5], trace.HopUchanDeq)
	}
	p.submitHeld(q, m)
}

// tryBlkSubmit attempts one submission (or flush barrier) on hardware
// queue q; it reports false if the queue was full (the message should be
// held). Invalid write references complete immediately as errors.
func (p *Process) tryBlkSubmit(q int, m uchan.Msg) bool {
	if m.Op == blkproxy.OpFlush {
		fo := blkproxy.FlushOp{Barrier: m.Args[0], Epoch: m.Args[1], Tag: m.Args[2]}
		p.flushMeta[fo.Tag] = fo
		if err := p.blockdev.Submit(q, api.BlockRequest{Flush: true, Tag: fo.Tag}); err != nil {
			delete(p.flushMeta, fo.Tag)
			return false
		}
		return true
	}
	req := api.BlockRequest{
		Write: m.Args[0]&blkproxy.SubmitWrite != 0,
		FUA:   m.Args[0]&blkproxy.SubmitFUA != 0,
		LBA:   m.Args[1],
		Tag:   m.Args[5],
	}
	if req.Write {
		phys, ok := p.DF.PhysFor(mem.Addr(m.Args[2]))
		if !ok {
			p.blkCompDone(q, m)
			return true
		}
		payload, ok := p.K.M.Mem.Slice(phys, int(m.Args[3]))
		if !ok {
			p.blkCompDone(q, m)
			return true
		}
		req.Data = payload
	}
	if err := p.blockdev.Submit(q, req); err != nil {
		return false
	}
	p.K.M.Trace.Event(trace.ClassBlk, q, req.Tag, trace.HopDoorbell)
	return true
}

// blkCompDone completes submission m with a bare failure status (no
// payload) — the runtime's drop path for a request it cannot submit — so
// the proxy releases the request's slot.
func (p *Process) blkCompDone(q int, m uchan.Msg) {
	_ = p.Chan.DownQ(q, uchan.Msg{Op: blkproxy.OpComplete,
		Args: [6]uint64{m.Args[5], 1, 0, 0, p.qep[q]}})
}

// --- api.Env implementation ---------------------------------------------------

// env is what the unmodified driver sees: the SUD-UML kernel environment.
type env struct {
	p *Process
}

var _ api.Env = (*env)(nil)

func (e *env) uml() { e.p.Acct.Charge(sim.CostUMLCall) }

func (e *env) ConfigRead(off, size int) (uint32, error) {
	e.uml()
	return e.p.DF.ConfigRead(off, size)
}

func (e *env) ConfigWrite(off, size int, v uint32) error {
	e.uml()
	return e.p.DF.ConfigWrite(off, size, v)
}

func (e *env) EnableDevice() error {
	e.uml()
	cur, err := e.p.DF.ConfigRead(pci.CfgCommand, 2)
	if err != nil {
		return err
	}
	return e.p.DF.ConfigWrite(pci.CfgCommand, 2, cur|pci.CmdMemSpace|pci.CmdIOSpace)
}

func (e *env) SetMaster() error {
	e.uml()
	cur, err := e.p.DF.ConfigRead(pci.CfgCommand, 2)
	if err != nil {
		return err
	}
	return e.p.DF.ConfigWrite(pci.CfgCommand, 2, cur|pci.CmdBusMaster)
}

func (e *env) FindCapability(id uint8) int {
	e.uml()
	off, err := e.p.DF.ConfigRead(pci.CfgCapPtr, 1)
	if err != nil {
		return 0
	}
	for iter := 0; off != 0 && iter < 16; iter++ {
		cap, err := e.p.DF.ConfigRead(int(off), 2)
		if err != nil {
			return 0
		}
		if uint8(cap) == id {
			return int(off)
		}
		off = cap >> 8
	}
	return 0
}

func (e *env) IORemap(bar int) (api.MMIO, error) {
	e.uml()
	m, err := e.p.DF.MapMMIO(bar)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (e *env) RequestRegion(bar int) (api.PortIO, error) {
	e.uml()
	io, err := e.p.DF.RequestIOPorts(bar)
	if err != nil {
		return nil, err
	}
	return io, nil
}

func (e *env) AllocCoherent(size int) (api.DMABuf, error) {
	e.uml()
	a, err := e.p.DF.AllocDMA(size, fmt.Sprintf("coherent #%d", len(e.p.DF.Allocs())), true)
	if err != nil {
		return nil, err
	}
	return &umlDMA{p: e.p, a: a, size: size}, nil
}

func (e *env) AllocCaching(size int) (api.DMABuf, error) {
	e.uml()
	a, err := e.p.DF.AllocDMA(size, fmt.Sprintf("caching #%d", len(e.p.DF.Allocs())), false)
	if err != nil {
		return nil, err
	}
	return &umlDMA{p: e.p, a: a, size: size}, nil
}

// AllocCoherentQ/AllocCachingQ implement api.QueueDMAAllocator: the
// allocation is mapped only into the stream's per-queue IOMMU sub-domain,
// the device-side half of queue-granular DMA confinement. The driver-side
// window is unchanged — the process sees one DMA address space either way.
func (e *env) AllocCoherentQ(size, stream int) (api.DMABuf, error) {
	e.uml()
	a, err := e.p.DF.AllocDMAQ(size, fmt.Sprintf("coherent q%d #%d", stream, len(e.p.DF.Allocs())), true, stream)
	if err != nil {
		return nil, err
	}
	return &umlDMA{p: e.p, a: a, size: size}, nil
}

func (e *env) AllocCachingQ(size, stream int) (api.DMABuf, error) {
	e.uml()
	a, err := e.p.DF.AllocDMAQ(size, fmt.Sprintf("caching q%d #%d", stream, len(e.p.DF.Allocs())), false, stream)
	if err != nil {
		return nil, err
	}
	return &umlDMA{p: e.p, a: a, size: size}, nil
}

func (e *env) FreeDMA(b api.DMABuf) error {
	e.uml()
	ub, ok := b.(*umlDMA)
	if !ok {
		return fmt.Errorf("sudml: foreign DMA buffer")
	}
	return e.p.DF.FreeDMA(ub.a)
}

func (e *env) RequestIRQ(handler func()) error {
	e.uml()
	p := e.p
	p.irqHandler = handler
	return p.DF.RequestIRQ(func() {
		// Kernel context: forward the interrupt as an urgent upcall —
		// interrupt wakes are the pump for batched async upcalls.
		if err := p.Chan.ASendUrgent(uchan.Msg{Op: protocol.OpInterrupt}); err != nil {
			// Ring full or dead: the interrupt is dropped; masking
			// policy in pciaccess protects the system.
			return
		}
	})
}

func (e *env) FreeIRQ() error {
	e.uml()
	e.p.irqHandler = nil
	return e.p.DF.FreeIRQ()
}

func (e *env) IRQAck() {
	e.uml()
	if err := e.p.Chan.Down(uchan.Msg{Op: protocol.OpIRQAck}); err != nil {
		return
	}
}

func (e *env) RegisterNetDev(name string, macAddr [6]byte, dev api.NetDevice) (api.NetKernel, error) {
	e.uml()
	p := e.p
	if p.Eth != nil {
		return nil, fmt.Errorf("sudml: netdev already registered")
	}
	p.netdev = dev
	p.ki = &ethproxy.KernelIface{Acct: p.K.Acct, Mem: p.K.M.Mem, Net: p.K.Net}
	proxy, err := ethproxy.New(p.ki, p.DF, p.Chan, name, macAddr)
	if err != nil {
		return nil, err
	}
	p.Eth, p.qp = proxy, proxy
	p.bindHold(p.tryXmit, p.dropXmit, p.retryXmit)
	return &umlNetKernel{p: p}, nil
}

func (e *env) Jiffies() uint64 {
	e.uml()
	return e.p.K.Jiffies()
}

func (e *env) Timer(delayJiffies uint64, fn func()) {
	e.uml()
	p := e.p
	p.K.M.Loop.After(sim.Duration(delayJiffies)*(sim.Second/kernel.HZ), func() {
		if p.killed {
			return
		}
		p.Acct.Charge(sim.CostUMLCall)
		fn()
		p.kickPending()
		p.flushRxBatches()
		p.flushBlkComps()
		p.Chan.Flush()
	})
}

func (e *env) Logf(format string, args ...any) {
	e.p.K.Logf("[sud:"+e.p.Name+"] "+format, args...)
}

// RegisterWifiDev implements api.EnvWifi for the untrusted host: a wireless
// proxy is created in the kernel, with the driver's static feature set
// mirrored at registration (§3.1.1).
func (e *env) RegisterWifiDev(name string, macAddr [6]byte, dev api.WifiDevice) (api.WifiKernel, error) {
	e.uml()
	p := e.p
	if p.Wifi != nil {
		return nil, fmt.Errorf("sudml: wifi device already registered")
	}
	p.wifidev = dev
	proxy, err := wifiproxy.New(p.K.Wifi, p.DF, p.Chan.Queue(0), name, macAddr, dev.Features())
	if err != nil {
		return nil, err
	}
	p.Wifi = proxy
	return &umlWifiKernel{p: p}, nil
}

// RegisterSoundDev implements api.EnvAudio for the untrusted host.
func (e *env) RegisterSoundDev(name string, dev api.AudioDevice) (api.AudioKernel, error) {
	e.uml()
	p := e.p
	if p.Audio != nil {
		return nil, fmt.Errorf("sudml: sound device already registered")
	}
	p.audiodev = dev
	proxy, err := audioproxy.New(p.K.Audio, p.DF, p.Chan.Queue(0), name)
	if err != nil {
		return nil, err
	}
	p.Audio = proxy
	return &umlAudioKernel{p: p}, nil
}

// RegisterBlockDev implements api.EnvBlock for the untrusted host: a block
// proxy is created in the kernel with the media geometry mirrored at
// registration (§3.3), and its per-queue shared-slot pools become distinct
// device-file allocations in the process's IOMMU domain.
func (e *env) RegisterBlockDev(name string, geom api.BlockGeometry, dev api.BlockDevice) (api.BlockKernel, error) {
	e.uml()
	p := e.p
	if p.Blk != nil && p.blockdev == nil && p.Blk.Dev != nil {
		// Promoted hot standby: the proxy pre-registered (and was geometry
		// checked) before the kill and is already bound to the adopted
		// device; the probing driver binds to it instead of registering
		// anew. The geometry the driver read back from the controller must
		// still match — same media, same device.
		if p.Blk.Dev.Geom != geom {
			return nil, fmt.Errorf("sudml: standby driver geometry %+v does not match %s's %+v",
				geom, p.Blk.Dev.Name, p.Blk.Dev.Geom)
		}
		p.blockdev = dev
		p.bindHold(p.tryBlkSubmit, p.blkCompDone, p.retryBlk)
		return &umlBlockKernel{p: p}, nil
	}
	if p.Blk != nil {
		return nil, fmt.Errorf("sudml: block device already registered")
	}
	if p.blkName != "" {
		name = p.blkName
	}
	p.blockdev = dev
	ki := &blkproxy.KernelIface{Acct: p.K.Acct, Mem: p.K.M.Mem, Blk: p.K.Blk}
	proxy, err := blkproxy.New(ki, p.DF, p.Chan, name, geom)
	if err != nil {
		return nil, err
	}
	p.Blk, p.qp = proxy, proxy
	p.bindHold(p.tryBlkSubmit, p.blkCompDone, p.retryBlk)
	return &umlBlockKernel{p: p}, nil
}

// umlBlockKernel is the driver-side api.BlockKernel: completions cross the
// channel as shared-buffer references, batched per queue.
type umlBlockKernel struct {
	p *Process
}

var _ api.BlockKernel = (*umlBlockKernel)(nil)

// Complete forwards one I/O completion to the real kernel. If the read
// payload is a view of the driver's DMA memory (it is, for queue-pair
// drivers), only the buffer reference crosses the channel — the zero-copy
// path of §3.1.2; the kernel-side guard copy happens in the proxy. On
// multi-queue channels references accumulate into per-queue batches (up to
// blkproxy.MaxBlkBatch per message); a single-queue channel keeps one
// message per completion, like the paper's transport.
func (bk *umlBlockKernel) Complete(q int, tag uint64, err error, data []byte) {
	p := bk.p
	if p.killed {
		return
	}
	if q < 0 || q >= len(p.blkComp) {
		q = 0
	}
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	p.K.M.Trace.Event(trace.ClassBlk, q, tag, trace.HopDrvComplete)
	if fo, ok := p.flushMeta[tag]; ok {
		// A flush barrier: deliver every completion gathered before the
		// barrier ack, then echo the OpFlush frame back with the status —
		// the proxy's barrier accounting verifies the echo.
		delete(p.flushMeta, tag)
		p.flushBlkComps()
		if err != nil {
			fo.Status = 1
		}
		var frame [blkproxy.FlushOpLen]byte
		_ = p.Chan.DownQ(q, uchan.Msg{Op: blkproxy.OpFlushDone, Data: blkproxy.AppendFlushOp(frame[:0], fo)})
		return
	}
	comp := p.completionRef(tag, err, data)
	if comp.IOVA == 0 && len(data) > 0 && err == nil {
		// Slice identity lost (the payload is not a registered DMA
		// view): bounce it inline on either transport — a zero
		// reference in the batch framing would read as a write
		// completion. The ring copies the bytes.
		p.BouncedRx++
		p.QueueAccts[q].Charge(sim.Copy(len(data)))
		_ = p.Chan.DownQ(q, uchan.Msg{Op: blkproxy.OpComplete, Data: data,
			Args: [6]uint64{comp.Tag, uint64(comp.Status), 0, 0, p.qep[q]}})
		return
	}
	if p.Chan.NumQueues() > 1 {
		p.blkComp[q] = append(p.blkComp[q], comp)
		if len(p.blkComp[q]) >= blkproxy.MaxBlkBatch {
			p.flushBlkCompQ(q)
		}
		return
	}
	_ = p.Chan.DownQ(q, uchan.Msg{Op: blkproxy.OpComplete,
		Args: [6]uint64{comp.Tag, uint64(comp.Status), comp.IOVA, uint64(comp.Len), p.qep[q]}})
}

// completionRef builds the wire form of one completion: successful reads
// resolve the payload view back to its bus address for the zero-copy
// reference; failures carry a bare status.
func (p *Process) completionRef(tag uint64, err error, data []byte) blkproxy.CompRef {
	comp := blkproxy.CompRef{Tag: tag}
	if err != nil {
		comp.Status = 1
		return comp
	}
	if len(data) == 0 {
		return comp // write completion
	}
	if iova, ok := p.sliceAddrs[&data[0]]; ok {
		p.ZeroCopyRx++
		comp.IOVA = uint64(iova)
		comp.Len = uint32(len(data))
	}
	return comp
}

// WakeQueueQ implements api.BlockKernel: queue q's hardware queue regained
// space; the wake downcall rides queue q's own ring and names the queue,
// so the proxy releases only that queue's block-core context.
func (bk *umlBlockKernel) WakeQueueQ(q int) {
	p := bk.p
	if q < 0 || q >= len(p.QueueAccts) {
		q = 0
	}
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	_ = p.Chan.DownQ(q, uchan.Msg{Op: blkproxy.OpWakeQueue, Args: [6]uint64{uint64(q)}})
}

// flushBlkCompQ emits queue q's accumulated completions as one batched
// downcall message on ring q.
func (p *Process) flushBlkCompQ(q int) {
	if len(p.blkComp[q]) == 0 {
		return
	}
	var buf [blkproxy.MaxBlkBatchLen]byte
	data := blkproxy.AppendBlkBatch(buf[:0], p.blkComp[q])
	p.blkComp[q] = p.blkComp[q][:0]
	p.QueueAccts[q].Charge(sim.Copy(len(data)))
	p.BlkBatches++
	_ = p.Chan.DownQ(q, uchan.Msg{Op: blkproxy.OpCompleteBatch, Data: data,
		Args: [6]uint64{p.qep[q]}})
}

// flushBlkComps emits every queue's partial completion batch; called at the
// end of a dispatch so completions never wait on future I/O.
func (p *Process) flushBlkComps() {
	for q := range p.blkComp {
		p.flushBlkCompQ(q)
	}
}

// umlAudioKernel is the driver-side api.AudioKernel.
type umlAudioKernel struct {
	p *Process
}

var _ api.AudioKernel = (*umlAudioKernel)(nil)

// PeriodElapsed forwards the latency-critical refill cue; it flushes
// immediately rather than waiting for batching, because a late period is an
// audible underrun (§4.1 real-time scheduling).
func (ak *umlAudioKernel) PeriodElapsed() {
	p := ak.p
	p.Acct.Charge(sim.CostUMLCall)
	_ = p.Chan.Down(uchan.Msg{Op: audioproxy.OpPeriodElapsed})
	p.Chan.Flush()
}

// XRun reports an underrun.
func (ak *umlAudioKernel) XRun() {
	p := ak.p
	p.Acct.Charge(sim.CostUMLCall)
	_ = p.Chan.Down(uchan.Msg{Op: audioproxy.OpXRun})
}

// umlWifiKernel is the driver-side api.WifiKernel: every notification is a
// downcall synchronising mirrored kernel state (§3.3).
type umlWifiKernel struct {
	p *Process
}

var _ api.WifiKernel = (*umlWifiKernel)(nil)

func (wk *umlWifiKernel) NetifRx(frame []byte) {
	p := wk.p
	if p.killed || len(frame) == 0 || len(frame) > wifiproxy.MaxFrame {
		return
	}
	p.Acct.Charge(sim.CostUMLCall + sim.Copy(len(frame)))
	_ = p.Chan.Down(uchan.Msg{Op: wifiproxy.OpNetifRx, Data: frame})
}

func (wk *umlWifiKernel) ScanDone(results []api.BSS) {
	p := wk.p
	p.Acct.Charge(sim.CostUMLCall)
	_ = p.Chan.Down(uchan.Msg{Op: wifiproxy.OpScanDone, Data: wifiproxy.EncodeBSSList(results)})
}

func (wk *umlWifiKernel) Associated(ssid string) {
	p := wk.p
	p.Acct.Charge(sim.CostUMLCall)
	_ = p.Chan.Down(uchan.Msg{Op: wifiproxy.OpAssociated, Data: []byte(ssid)})
}

func (wk *umlWifiKernel) Disassociated() {
	p := wk.p
	p.Acct.Charge(sim.CostUMLCall)
	_ = p.Chan.Down(uchan.Msg{Op: wifiproxy.OpDisassociated})
}

// --- DMA buffers ----------------------------------------------------------------

// umlDMA is driver-process DMA memory: the same physical pages are mapped
// into the process, the kernel, and the device's IOMMU domain, at a bus
// address equal to the process virtual address (§4.1).
type umlDMA struct {
	p    *Process
	a    *pciaccess.Alloc
	size int
}

func (b *umlDMA) BusAddr() mem.Addr { return b.a.IOVA }
func (b *umlDMA) Size() int         { return b.size }

// touch routes a driver-side access through the safe PCI module's page-flip
// bookkeeping: on a revoked page the process's mapping is gone, so the access
// faults (recorded as evidence) instead of reading kernel-owned bytes. Gated
// on RevokedPages so a process that never flips pays nothing.
func (b *umlDMA) touch(off, n int, write bool) error {
	if b.p.DF.RevokedPages() == 0 {
		return nil
	}
	_, err := b.p.DF.DriverTouch(b.a.IOVA+mem.Addr(off), n, write)
	return err
}

func (b *umlDMA) Read(off int, p []byte) error {
	if off < 0 || off+len(p) > b.size {
		return fmt.Errorf("sudml: DMA read out of bounds")
	}
	if err := b.touch(off, len(p), false); err != nil {
		return err
	}
	b.p.Acct.Charge(sim.Copy(len(p)))
	return b.p.K.M.Mem.Read(b.a.Phys+mem.Addr(off), p)
}

func (b *umlDMA) Write(off int, p []byte) error {
	if off < 0 || off+len(p) > b.size {
		return fmt.Errorf("sudml: DMA write out of bounds")
	}
	if err := b.touch(off, len(p), true); err != nil {
		return err
	}
	b.p.Acct.Charge(sim.Copy(len(p)))
	return b.p.K.M.Mem.Write(b.a.Phys+mem.Addr(off), p)
}

func (b *umlDMA) Slice(off, n int) ([]byte, bool) {
	if off < 0 || n <= 0 || off+n > b.size {
		return nil, false
	}
	if b.touch(off, n, true) != nil {
		return nil, false
	}
	view, ok := b.p.K.M.Mem.Slice(b.a.Phys+mem.Addr(off), n)
	if !ok {
		return nil, false
	}
	// Remember the view's identity so netif_rx can recover the bus
	// address for the zero-copy downcall.
	if len(b.p.sliceAddrs) > 8192 {
		b.p.sliceAddrs = make(map[*byte]mem.Addr)
	}
	b.p.sliceAddrs[&view[0]] = b.a.IOVA + mem.Addr(off)
	return view, true
}

// --- NetKernel (driver → "kernel" inside SUD-UML) --------------------------------

type umlNetKernel struct {
	p *Process
}

var _ api.NetKernel = (*umlNetKernel)(nil)

// NetifRx forwards a received frame to the real kernel: the frame arrived
// on RX ring q and is delivered on queue q's uchan ring, charged to queue
// q's service account. If the frame is a view of the driver's DMA memory
// (it is, for ring-based drivers), only the buffer reference crosses the
// channel — the zero-copy path of §3.1.2; the kernel-side guard copy
// happens in the proxy, fused with checksumming. On multi-queue channels
// zero-copy references accumulate into a per-queue batch (up to
// ethproxy.MaxRxBatch per message) instead of paying one downcall per
// frame; a single-queue channel keeps the paper's exact
// one-message-per-frame transport.
func (nk *umlNetKernel) NetifRx(frame []byte, q int) {
	p := nk.p
	if len(frame) == 0 || p.killed {
		return
	}
	if q < 0 || q >= len(p.rxBatch) {
		q = 0
	}
	multi := p.Chan.NumQueues() > 1 && !p.NoRxBatch
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	if iova, ok := p.sliceAddrs[&frame[0]]; ok {
		p.ZeroCopyRx++
		p.K.M.Trace.Event(trace.ClassNetRx, q, uint64(iova), trace.HopUchanEnq)
		if multi {
			p.rxBatch[q] = append(p.rxBatch[q], ethproxy.RxRef{IOVA: uint64(iova), Len: uint32(len(frame))})
			if len(p.rxBatch[q]) >= ethproxy.MaxRxBatch {
				p.flushRxBatchQ(q)
			}
			return
		}
		_ = p.Chan.DownQ(q, uchan.Msg{Op: ethproxy.OpNetifRx, Args: [6]uint64{uint64(iova), uint64(len(frame))}})
		return
	}
	// Fallback: bounce through an inline copy in the message, which the
	// ring makes.
	p.BouncedRx++
	p.QueueAccts[q].Charge(sim.Copy(len(frame)))
	_ = p.Chan.DownQ(q, uchan.Msg{Op: ethproxy.OpNetifRx, Data: frame,
		Args: [6]uint64{0, uint64(len(frame))}})
}

// flushRxBatchQ emits queue q's accumulated frame references as one batched
// downcall message on ring q.
func (p *Process) flushRxBatchQ(q int) {
	if len(p.rxBatch[q]) == 0 {
		return
	}
	var buf [ethproxy.MaxRxBatchLen]byte
	data := ethproxy.AppendRxBatch(buf[:0], p.rxBatch[q])
	p.rxBatch[q] = p.rxBatch[q][:0]
	p.QueueAccts[q].Charge(sim.Copy(len(data)))
	p.RxBatches++
	_ = p.Chan.DownQ(q, uchan.Msg{Op: ethproxy.OpNetifRxBatch, Data: data})
}

// flushRxBatches emits every queue's partial batch; called at the end of a
// dispatch so received frames never wait on future traffic.
func (p *Process) flushRxBatches() {
	for q := range p.rxBatch {
		p.flushRxBatchQ(q)
	}
}

// CarrierOn mirrors link state to the kernel (§3.3 shared-memory state).
func (nk *umlNetKernel) CarrierOn() {
	nk.p.Acct.Charge(sim.CostUMLCall)
	_ = nk.p.Chan.Down(uchan.Msg{Op: ethproxy.OpCarrierOn})
}

// CarrierOff mirrors link state to the kernel.
func (nk *umlNetKernel) CarrierOff() {
	nk.p.Acct.Charge(sim.CostUMLCall)
	_ = nk.p.Chan.Down(uchan.Msg{Op: ethproxy.OpCarrierOff})
}

// WakeQueue mirrors TX queue state to the kernel: queue q's device ring
// regained space; the wake downcall rides queue q's own ring and names the
// queue, so the proxy releases only that queue's netstack context.
func (nk *umlNetKernel) WakeQueue(q int) {
	p := nk.p
	if q < 0 || q >= len(p.QueueAccts) {
		q = 0
	}
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	_ = p.Chan.DownQ(q, uchan.Msg{Op: ethproxy.OpWakeQueue, Args: [6]uint64{uint64(q)}})
}
