// Package nvmed is the storage driver for the NVMe-lite controller model,
// written exclusively against the Linux-like API in internal/drivers/api.
// The identical code runs as a trusted in-kernel driver and inside an
// untrusted SUD process; it cannot tell the difference.
//
// It is a scaled-down but structurally faithful Linux NVMe driver: admin
// queue bring-up and Identify at probe, one I/O submission/completion queue
// pair per host queue created through admin commands, per-queue data-buffer
// pools (queue-scoped device-file allocations under SUD — the groundwork
// for per-queue IOMMU domains), NAPI-style completion polling from the
// interrupt handler with phase-tag tracking, and submission stop/wake
// backpressure per queue.
//
// Bring-up is idempotent by construction — enableCtrl disables the
// controller (EN 1→0 resets every queue) before programming it, like the
// Linux driver's nvme_disable_ctrl — which is what lets a restarted process
// probe a controller its dead predecessor left enabled, the precondition
// for shadow-driver recovery (§2, §5.2).
package nvmed

import (
	"fmt"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/api"
	"sud/internal/mem"
)

// Queue geometry: entries per I/O SQ/CQ pair and per-queue data pool slots.
// One pool slot backs one in-flight command, so QDepth bounds both.
const (
	QDepth     = 64
	AdminDepth = 16

	// coalesceBulk programs ~10000 completion interrupts/s (RegINTCOAL
	// units are 256 ns) — the Interrupt Coalescing setting the Linux
	// driver negotiates for throughput workloads. One interrupt then
	// reaps a whole batch of completions across the queue pairs, and the
	// device cannot storm the host no matter how fast the media is.
	coalesceBulk = 390
)

// Driver is the module object.
type Driver struct {
	queues   int
	pageFlip bool
}

// NewQ returns the driver module configured for up to n I/O queue pairs; at
// probe the count is clamped to what the bound controller reports in CAP,
// so a mismatch degrades to fewer queues instead of failed queue creation.
func NewQ(n int) api.Driver {
	if n < 1 {
		n = 1
	}
	if n > nvme.MaxIOQueues {
		n = nvme.MaxIOQueues
	}
	return Driver{queues: n}
}

// NewFlipQ returns the driver configured for the page-flip fast path: a read
// completion lends its pool slot to the kernel until the host recycles the
// page back (api.PageRecycler), SQ tail doorbells are staged and flushed once
// per host-call batch (api.BatchKicker), and submission opportunistically
// polls the completion queue so completions ride the submit stream instead of
// waiting out the interrupt-coalescing window. Only hosts that run the
// GuardPageFlip proxy mode and call KickPending at drain end may use it; the
// stock constructors keep the baseline behaviour bit for bit.
func NewFlipQ(n int) api.Driver {
	d := NewQ(n).(Driver)
	d.pageFlip = true
	return d
}

// Name implements api.Driver.
func (Driver) Name() string { return "nvmed" }

// Match implements api.Driver: claim the NVMe-lite controller.
func (Driver) Match(vendor, device uint16) bool {
	return vendor == nvme.VendorID && device == nvme.DeviceID
}

// Probe implements api.Driver.
func (d Driver) Probe(env api.Env) (api.Instance, error) {
	q := d.queues
	if q < 1 {
		q = 1
	}
	c := &ctrl{env: env, queues: q, pageAware: d.pageFlip, fastPath: d.pageFlip, coalesceSQ: d.pageFlip}
	if err := c.probe(); err != nil {
		return nil, err
	}
	return c, nil
}

// ioq is one I/O queue pair: its SQ/CQ rings, its data-buffer pool, and the
// driver-side cursors and phase state.
type ioq struct {
	sq   api.DMABuf
	cq   api.DMABuf
	bufs api.DMABuf // QDepth slots × BlockSize, one per in-flight command

	tail     int  // SQ producer index
	cqHead   int  // CQ consumer index
	phase    bool // expected phase tag
	inFlight int
	stopped  bool
	kick     bool // staged SQ tail doorbell (coalesceSQ)

	used  [QDepth]bool   // CID → slot in use
	tags  [QDepth]uint64 // CID → kernel tag
	wrote [QDepth]bool   // CID → request direction
	// lent marks slots whose buffer page a read completion handed to the
	// kernel (pageAware): the proxy flips the page out of our domain, so
	// the slot stays unusable until RecyclePages returns it.
	lent [QDepth]bool
}

type ctrl struct {
	env    api.Env
	mmio   api.MMIO
	blk    api.BlockKernel
	queues int

	geom api.BlockGeometry

	adminSQ   api.DMABuf
	adminCQ   api.DMABuf
	adminPage api.DMABuf
	adminTail int
	adminHead int
	adminCID  uint16
	adminPh   bool

	io []ioq

	// sqe is the scratch I/O command Submit builds before writeRing copies
	// it into the SQ; nothing runs between the two.
	sqe [nvme.SQESize]byte

	opened  bool
	removed bool

	// Page-flip fast-path knobs (NewFlipQ).
	pageAware  bool
	fastPath   bool
	coalesceSQ bool

	// Counters (visible to tests).
	Submitted, Completed, Errors uint64
	Interrupts                   uint64
	// SQDoorbells counts I/O SQ tail MMIO writes (doorbells-per-command is
	// the submit-side coalescing metric).
	SQDoorbells uint64
}

var _ api.BlockDevice = (*ctrl)(nil)
var _ api.Instance = (*ctrl)(nil)

func (c *ctrl) probe() error {
	env := c.env
	eb, ok := env.(api.EnvBlock)
	if !ok {
		return fmt.Errorf("nvmed: host does not support block devices")
	}
	if err := env.EnableDevice(); err != nil {
		return err
	}
	if err := env.SetMaster(); err != nil {
		return err
	}
	m, err := env.IORemap(0)
	if err != nil {
		return err
	}
	c.mmio = m

	// Clamp the configured queue count to the controller's CAP field, as
	// the Linux driver sizes its pairs from Number of Queues.
	if hw := int(m.Read32(nvme.RegCAP) >> 16 & 0xF); hw >= 1 && hw < c.queues {
		env.Logf("nvmed: controller exposes %d I/O queue pairs, using %d (not %d)", hw, hw, c.queues)
		c.queues = hw
	}

	// Admin queue bring-up: rings, AQA/ASQ/ACQ, then enable.
	if c.adminSQ, err = env.AllocCoherent(AdminDepth * nvme.SQESize); err != nil {
		return err
	}
	if c.adminCQ, err = env.AllocCoherent(AdminDepth * nvme.CQESize); err != nil {
		return err
	}
	if c.adminPage, err = env.AllocCoherent(nvme.BlockSize); err != nil {
		return err
	}
	if err := c.enableCtrl(); err != nil {
		return err
	}

	// Identify: the controller DMA-writes its geometry into our page.
	var sqe [nvme.SQESize]byte
	sqe[0] = nvme.AdminIdentify
	putLE64(sqe[24:32], uint64(c.adminPage.BusAddr()))
	if status, err := c.adminCmd(sqe[:]); err != nil {
		return err
	} else if status != nvme.StatusOK {
		return fmt.Errorf("nvmed: identify failed (status %d)", status)
	}
	page := make([]byte, nvme.IdentifyLen)
	if err := c.adminPage.Read(0, page); err != nil {
		return err
	}
	c.geom = api.BlockGeometry{
		Blocks:     le64(page[0:8]),
		BlockSize:  int(le32(page[8:12])),
		WriteCache: page[14] != 0,
	}

	bk, err := eb.RegisterBlockDev("nvme0", c.geom, c)
	if err != nil {
		return err
	}
	c.blk = bk
	env.Logf("nvmed: probed, %d blocks × %d B, %d I/O queue pairs",
		c.geom.Blocks, c.geom.BlockSize, c.queues)
	return nil
}

// enableCtrl programs the admin queue and brings the controller to ready —
// the bring-up sequence at probe and again after every controller reset
// (Stop disables the controller, which clears all queue state).
func (c *ctrl) enableCtrl() error {
	m := c.mmio
	// Disable first: a previous owner (or a prior Stop) may have left the
	// controller enabled with stale queue state; the EN 1→0 transition
	// resets it, like the Linux driver's nvme_disable_ctrl before setup.
	m.Write32(nvme.RegCC, 0)
	c.adminTail, c.adminHead, c.adminPh = 0, 0, true
	m.Write32(nvme.RegAQA, uint32(AdminDepth-1)|uint32(AdminDepth-1)<<16)
	m.Write32(nvme.RegASQL, uint32(c.adminSQ.BusAddr()))
	m.Write32(nvme.RegASQH, uint32(uint64(c.adminSQ.BusAddr())>>32))
	m.Write32(nvme.RegACQL, uint32(c.adminCQ.BusAddr()))
	m.Write32(nvme.RegACQH, uint32(uint64(c.adminCQ.BusAddr())>>32))
	m.Write32(nvme.RegCC, nvme.CcEnable)
	if m.Read32(nvme.RegCSTS)&nvme.CstsReady == 0 {
		return fmt.Errorf("nvmed: controller did not become ready")
	}
	return nil
}

// adminCmd submits one admin command and polls its phase-tagged completion
// (admin commands execute synchronously in the controller model).
func (c *ctrl) adminCmd(sqe []byte) (uint16, error) {
	c.adminCID++
	putLE16(sqe[2:4], c.adminCID)
	if err := writeRing(c.adminSQ, c.adminTail, nvme.SQESize, sqe); err != nil {
		return 0, err
	}
	c.adminTail = (c.adminTail + 1) % AdminDepth
	c.mmio.Write32(nvme.SQDoorbell(0), uint32(c.adminTail))

	cqe, err := readRing(c.adminCQ, c.adminHead, nvme.CQESize)
	if err != nil {
		return 0, err
	}
	st := le16(cqe[14:16])
	phase := st&1 != 0
	if phase != c.adminPh {
		return 0, fmt.Errorf("nvmed: admin command not completed")
	}
	c.adminHead = (c.adminHead + 1) % AdminDepth
	if c.adminHead == 0 {
		c.adminPh = !c.adminPh
	}
	c.mmio.Write32(nvme.CQDoorbell(0), uint32(c.adminHead))
	return st >> 1, nil
}

// Remove implements api.Instance.
func (c *ctrl) Remove() {
	if c.opened {
		_ = c.Stop()
	}
	c.removed = true
}

// --- api.BlockDevice ---------------------------------------------------------

// Queues implements api.BlockDevice.
func (c *ctrl) Queues() int { return c.queues }

// Open implements the bring-up half: create one I/O CQ+SQ pair per host
// queue through admin commands, allocate per-queue data pools, request the
// interrupt.
func (c *ctrl) Open() error {
	if c.opened {
		return nil
	}
	env := c.env
	if c.mmio.Read32(nvme.RegCSTS)&nvme.CstsReady == 0 {
		// A prior Stop reset the controller; bring it back up.
		if err := c.enableCtrl(); err != nil {
			return err
		}
	}
	c.io = make([]ioq, c.queues)
	for q := range c.io {
		ioq := &c.io[q]
		qid := q + 1
		var err error
		// Rings and data pool are owned by the queue whose engine DMAs
		// them: stream = I/O qid, so a host with the per-queue DMA split
		// maps them only into that queue's sub-domain.
		if ioq.sq, err = api.AllocCoherentQ(env, QDepth*nvme.SQESize, qid); err != nil {
			return err
		}
		if ioq.cq, err = api.AllocCoherentQ(env, QDepth*nvme.CQESize, qid); err != nil {
			return err
		}
		// Per-queue data pool: one device-file allocation per queue, so
		// each queue's buffers are a distinct IOMMU-visible object.
		if ioq.bufs, err = api.AllocCachingQ(env, QDepth*nvme.BlockSize, qid); err != nil {
			return err
		}
		ioq.phase = true

		var sqe [nvme.SQESize]byte
		sqe[0] = nvme.AdminCreateIOCQ
		putLE64(sqe[24:32], uint64(ioq.cq.BusAddr()))
		putLE16(sqe[40:42], uint16(qid))
		putLE16(sqe[42:44], QDepth-1)
		if st, err := c.adminCmd(sqe[:]); err != nil {
			return err
		} else if st != nvme.StatusOK {
			return fmt.Errorf("nvmed: create CQ %d failed (status %d)", qid, st)
		}
		sqe = [nvme.SQESize]byte{}
		sqe[0] = nvme.AdminCreateIOSQ
		putLE64(sqe[24:32], uint64(ioq.sq.BusAddr()))
		putLE16(sqe[40:42], uint16(qid))
		putLE16(sqe[42:44], QDepth-1)
		putLE16(sqe[44:46], uint16(qid))
		if st, err := c.adminCmd(sqe[:]); err != nil {
			return err
		} else if st != nvme.StatusOK {
			return fmt.Errorf("nvmed: create SQ %d failed (status %d)", qid, st)
		}
	}
	if err := env.RequestIRQ(c.irq); err != nil {
		return err
	}
	c.mmio.Write32(nvme.RegINTCOAL, coalesceBulk)
	c.mmio.Write32(nvme.RegINTMC, 0xFFFFFFFF)
	c.opened = true
	return nil
}

// Stop implements quiesce: disable the controller (resetting every queue),
// release the interrupt and the DMA memory.
func (c *ctrl) Stop() error {
	if !c.opened {
		return nil
	}
	c.opened = false
	c.mmio.Write32(nvme.RegINTMS, 0xFFFFFFFF)
	c.mmio.Write32(nvme.RegCC, 0)
	if err := c.env.FreeIRQ(); err != nil {
		return err
	}
	for q := range c.io {
		for _, b := range []api.DMABuf{c.io[q].sq, c.io[q].cq, c.io[q].bufs} {
			if b != nil {
				if err := c.env.FreeDMA(b); err != nil {
					return err
				}
			}
		}
	}
	c.io = nil
	return nil
}

// Submit implements api.BlockDevice: claim a command slot on queue q, stage
// the payload in the queue's pool, build the SQE and ring the SQ doorbell.
func (c *ctrl) Submit(q int, req api.BlockRequest) error {
	if !c.opened {
		return fmt.Errorf("nvmed: device closed")
	}
	if q < 0 || q >= len(c.io) {
		q = 0
	}
	ioq := &c.io[q]
	if ioq.inFlight >= QDepth-1 {
		if c.fastPath {
			// Reap posted completions inline before giving up — the
			// doorbell may be staged, so flush it first.
			c.kickSQ(q)
			c.pollCQ(q)
		}
		if ioq.inFlight >= QDepth-1 {
			ioq.stopped = true
			return fmt.Errorf("nvmed: queue %d full", q)
		}
	}
	cid := -1
	for i := 0; i < QDepth; i++ {
		if !ioq.used[i] && !ioq.lent[i] {
			cid = i
			break
		}
	}
	if cid < 0 {
		ioq.stopped = true
		return fmt.Errorf("nvmed: queue %d out of command slots", q)
	}
	bufOff := cid * nvme.BlockSize
	if req.Write {
		if len(req.Data) != nvme.BlockSize {
			return fmt.Errorf("nvmed: write payload is %d bytes, want %d", len(req.Data), nvme.BlockSize)
		}
		if view, ok := ioq.bufs.Slice(bufOff, nvme.BlockSize); ok {
			copy(view, req.Data)
		} else if err := ioq.bufs.Write(bufOff, req.Data); err != nil {
			return err
		}
	}
	sqe := &c.sqe
	*sqe = [nvme.SQESize]byte{}
	switch {
	case req.Flush:
		// A flush barrier: no payload, no LBA — the controller drains its
		// volatile cache before completing (REQ_OP_FLUSH → CmdFlush).
		sqe[0] = nvme.CmdFlush
	case req.Write:
		sqe[0] = nvme.CmdWrite
	default:
		sqe[0] = nvme.CmdRead
	}
	putLE16(sqe[2:4], uint16(cid))
	if !req.Flush {
		putLE64(sqe[24:32], uint64(ioq.bufs.BusAddr())+uint64(bufOff))
		putLE64(sqe[40:48], req.LBA)
		if req.FUA {
			sqe[50] |= nvme.SqeFlagFUA
		}
	}
	if err := writeRing(ioq.sq, ioq.tail, nvme.SQESize, sqe[:]); err != nil {
		return err
	}
	ioq.used[cid] = true
	ioq.tags[cid] = req.Tag
	ioq.wrote[cid] = req.Write || req.Flush
	ioq.inFlight++
	ioq.tail = (ioq.tail + 1) % QDepth
	if c.coalesceSQ {
		// Stage the tail doorbell; KickPending flushes it once for the
		// whole batch of submissions the host delivered in this drain.
		ioq.kick = true
	} else {
		c.mmio.Write32(nvme.SQDoorbell(q+1), uint32(ioq.tail))
		c.SQDoorbells++
	}
	c.Submitted++
	if c.fastPath {
		// Opportunistic completion reap on the submit path: under load,
		// completions ride the submission stream instead of waiting out
		// the interrupt-coalescing window.
		c.pollCQ(q)
	}
	return nil
}

// kickSQ flushes queue q's staged SQ tail doorbell, if any.
func (c *ctrl) kickSQ(q int) {
	ioq := &c.io[q]
	if !ioq.kick {
		return
	}
	ioq.kick = false
	c.mmio.Write32(nvme.SQDoorbell(q+1), uint32(ioq.tail))
	c.SQDoorbells++
}

// KickPending implements api.BatchKicker: flush every staged SQ tail doorbell
// — one MMIO write per queue that submitted since the last kick, however many
// commands the batch carried — then, on the fast path, reap any completions
// the flush made available.
func (c *ctrl) KickPending() {
	if !c.opened {
		return
	}
	for q := range c.io {
		c.kickSQ(q)
	}
	if c.fastPath {
		for q := range c.io {
			c.pollCQ(q)
		}
	}
}

// RecyclePages implements api.PageRecycler: the host returns buffer pages
// whose read payloads it delivered by page flip; each page is one command
// slot (BlockSize == page size), which becomes allocatable again.
func (c *ctrl) RecyclePages(q int, pages []mem.Addr) {
	if !c.opened || q < 0 || q >= len(c.io) {
		return
	}
	ioq := &c.io[q]
	base := ioq.bufs.BusAddr()
	freed := 0
	for _, page := range pages {
		if page < base || page >= base+mem.Addr(QDepth*nvme.BlockSize) {
			continue // not this queue's pool
		}
		slot := int(page-base) / nvme.BlockSize
		if ioq.lent[slot] {
			ioq.lent[slot] = false
			freed++
		}
	}
	if freed > 0 && ioq.stopped && ioq.inFlight < QDepth-1 {
		ioq.stopped = false
		c.blk.WakeQueueQ(q)
	}
}

// --- interrupt path -----------------------------------------------------------

func (c *ctrl) irq() {
	if !c.opened {
		return
	}
	c.Interrupts++
	for q := range c.io {
		c.pollCQ(q)
	}
	c.env.IRQAck()
}

// pollCQ drains queue q's completion queue NAPI-style: consume every entry
// carrying the expected phase tag, complete to the block core tagged with
// the queue, then ring the CQ head doorbell once for the whole batch.
func (c *ctrl) pollCQ(q int) int {
	ioq := &c.io[q]
	processed := 0
	for processed < QDepth {
		cqe, err := readRing(ioq.cq, ioq.cqHead, nvme.CQESize)
		if err != nil {
			break
		}
		st := le16(cqe[14:16])
		if (st&1 != 0) != ioq.phase {
			break
		}
		cid := int(le16(cqe[12:14]))
		status := st >> 1
		ioq.cqHead = (ioq.cqHead + 1) % QDepth
		if ioq.cqHead == 0 {
			ioq.phase = !ioq.phase
		}
		processed++
		if cid < 0 || cid >= QDepth || !ioq.used[cid] {
			continue // spurious completion
		}
		ioq.used[cid] = false
		ioq.inFlight--
		tag := ioq.tags[cid]
		c.Completed++
		if status != nvme.StatusOK {
			c.Errors++
			c.blk.Complete(q, tag, fmt.Errorf("nvmed: device status %d", status), nil)
			continue
		}
		if ioq.wrote[cid] {
			c.blk.Complete(q, tag, nil, nil)
			continue
		}
		var data []byte
		bufOff := cid * nvme.BlockSize
		if view, ok := ioq.bufs.Slice(bufOff, nvme.BlockSize); ok {
			data = view // zero-copy reference into the stack, like a bio
			if c.pageAware {
				// The host will flip this buffer's page to the kernel;
				// the slot comes back through RecyclePages.
				ioq.lent[cid] = true
			}
		} else {
			data = make([]byte, nvme.BlockSize)
			if err := ioq.bufs.Read(bufOff, data); err != nil {
				c.blk.Complete(q, tag, err, nil)
				continue
			}
		}
		c.blk.Complete(q, tag, nil, data)
	}
	if processed > 0 {
		c.mmio.Write32(nvme.CQDoorbell(q+1), uint32(ioq.cqHead))
		if ioq.stopped && ioq.inFlight < QDepth-1 {
			ioq.stopped = false
			c.blk.WakeQueueQ(q)
		}
	}
	return processed
}

// Geometry returns the identified geometry (tests).
func (c *ctrl) Geometry() api.BlockGeometry { return c.geom }

// --- ring access ---------------------------------------------------------------

func writeRing(ring api.DMABuf, i, entry int, e []byte) error {
	if view, ok := ring.Slice(i*entry, entry); ok {
		copy(view, e)
		return nil
	}
	return ring.Write(i*entry, e)
}

func readRing(ring api.DMABuf, i, entry int) ([]byte, error) {
	if view, ok := ring.Slice(i*entry, entry); ok {
		return view, nil
	}
	e := make([]byte, entry)
	err := ring.Read(i*entry, e)
	return e, err
}

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putLE16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
