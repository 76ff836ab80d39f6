// Package nvme models an NVMe-lite storage controller at register level: an
// admin submission/completion queue pair plus up to MaxIOQueues I/O queue
// pairs, each behind its own doorbell in the BAR0 doorbell array, with
// 64-byte submission entries and 16-byte phase-tagged completion entries
// fetched and written back via DMA — so a driver bug (or attack) that
// programs a bad queue base or PRP produces a real IOMMU fault. The nvmed
// driver in internal/drivers/nvmed programs it the way the Linux NVMe driver
// programs real silicon: through BAR0 registers, admin commands and
// in-memory queue rings.
//
// The per-queue design is the point: like real NVMe, every I/O queue pair
// has its own doorbells and its own command engine, so queues make progress
// in parallel — the per-command engine and media time serialise within a
// queue, not across queues. That is what the multi-queue uchan transport
// scales against.
//
// The model is the storage surface SUD's confinement mechanisms are
// exercised against: the register decode clamps out-of-range doorbells and
// LBAs (§3.2.1's "validate everything the driver programs" applied at the
// device), all ring and payload traffic moves by DMA through the process's
// IOMMU domain (§3.2, Figure 9), and a controller reset (CC enable 1→0)
// clears every queue — which is what makes driver bring-up idempotent and
// shadow-driver restart (§2, §5.2) possible after a kill -9.
//
// Media is stored per logical block, and a block gets host memory on its
// first write. A never-written LBA reads as zeros, as a deallocated LBA does
// on real NVMe, so a device costs the host only the blocks a run writes. The
// index of block pointers is backed the same way, one chunk of chunkBlocks
// LBAs at a time: a device boots with one pointer per chunk, and a chunk's
// page of block pointers appears with the first write into it.
package nvme

import (
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/trace"
)

// PCI identity: the QEMU NVMe controller ID, class = mass storage.
const (
	VendorID = 0x1B36
	DeviceID = 0x0010
)

// Register offsets in BAR0 (a condensed NVMe 1.x map).
const (
	// RegCAP is the read-only capability register (low dword): bits
	// [0:16) MQES (max queue entries, 0's based), bits [16:20) the
	// number of I/O queue pairs the controller exposes — our stand-in
	// for the Set Features "Number of Queues" negotiation.
	RegCAP = 0x0000
	// RegVS is the version register.
	RegVS = 0x0008
	// RegINTMS/RegINTMC set/clear bits in the interrupt mask (write-1s);
	// bit q masks completions of CQ q (bit 0 = admin CQ).
	RegINTMS = 0x000C
	RegINTMC = 0x0010
	// RegCC is controller configuration; writing CcEnable brings the
	// controller up, clearing it resets every queue.
	RegCC = 0x0014
	// RegCSTS is controller status; CstsReady reflects CC enable.
	RegCSTS = 0x001C
	// RegAQA holds the admin queue sizes (0's based): bits [0:12) the
	// admin SQ size, bits [16:28) the admin CQ size.
	RegAQA = 0x0024
	// RegASQL/H and RegACQL/H hold the admin SQ/CQ base addresses.
	RegASQL = 0x0028
	RegASQH = 0x002C
	RegACQL = 0x0030
	RegACQH = 0x0034
	// RegINTCOAL is the interrupt-coalescing interval in 256 ns units
	// (the register stand-in for NVMe's Interrupt Coalescing feature):
	// at most one completion MSI per interval, further completions
	// riding the deferred message. 0 disables coalescing.
	RegINTCOAL = 0x0038
	// RegVWC is the volatile-write-cache control register (the register
	// stand-in for NVMe's Set Features / Volatile Write Cache): bit 0
	// enables the cache. Writes on a part without a cache are ignored;
	// reads report the enable bit plus the current dirty-block count in
	// bits [16:32) — always clamped to the modelled capacity, whatever
	// the driver scribbles here.
	RegVWC = 0x003C

	// DoorbellBase is the start of the doorbell array: queue q's SQ tail
	// doorbell lives at DoorbellBase + (2q)·DoorbellStride and its CQ
	// head doorbell at DoorbellBase + (2q+1)·DoorbellStride. Queue 0 is
	// the admin queue.
	DoorbellBase   = 0x1000
	DoorbellStride = 4

	// BARSize is the size of BAR0.
	BARSize = 0x4000
)

// CC/CSTS bits.
const (
	CcEnable  = 1 << 0
	CstsReady = 1 << 0
)

// VwcEnable is RegVWC bit 0: volatile write cache enabled.
const VwcEnable = 1 << 0

// Queue entry sizes, as on real NVMe.
const (
	SQESize = 64
	CQESize = 16
)

// Submission-entry layout (byte offsets inside the 64-byte SQE; a condensed
// rendition of the NVMe command format, little-endian):
//
//	[0]      opcode
//	[2:4)    CID (command identifier)
//	[24:32)  PRP1 — data pointer, first page
//	[32:40)  PRP2 — second page when the buffer crosses a page boundary
//	[40:48)  SLBA (I/O) or queue-management dword: qid [40:42),
//	         qsize-1 [42:44), cqid [44:46) (admin create/delete)
//	[48:50)  NLB, 0's based (I/O commands)
//	[50]     I/O flags: bit 0 = FUA (force unit access — the write
//	         bypasses the volatile cache straight to media, NVMe's
//	         CDW12 FUA bit condensed to a byte)
const (
	sqeOpcode = 0
	sqeCID    = 2
	sqePRP1   = 24
	sqePRP2   = 32
	sqeSLBA   = 40
	sqeQID    = 40
	sqeQSize  = 42
	sqeCQID   = 44
	sqeNLB    = 48
	sqeFlags  = 50
)

// SqeFlagFUA is the FUA bit in the SQE's I/O flags byte.
const SqeFlagFUA = 1 << 0

// Admin opcodes (NVMe values).
const (
	AdminDeleteIOSQ = 0x00
	AdminCreateIOSQ = 0x01
	AdminDeleteIOCQ = 0x04
	AdminCreateIOCQ = 0x05
	AdminIdentify   = 0x06
)

// I/O opcodes (NVMe values).
const (
	CmdFlush = 0x00
	CmdWrite = 0x01
	CmdRead  = 0x02
)

// Completion status codes, stored in CQE bits [1:16) above the phase tag.
const (
	StatusOK            = 0
	StatusInvalidOpcode = 1
	StatusInvalidField  = 2
	StatusLBARange      = 3
	StatusQueueExists   = 4
	StatusNoQueue       = 5
)

// Identify-page layout: the controller DMA-writes its geometry into the
// caller's PRP1 page.
//
//	[0:8)   capacity in logical blocks
//	[8:12)  logical block size in bytes
//	[12:14) I/O queue pairs available
//	[14]    volatile write cache present (NVMe's Identify VWC bit)
const (
	idBlocks   = 0
	idBlkSize  = 8
	idIOQueues = 12
	idVWC      = 14
	// IdentifyLen is how many bytes the Identify command writes.
	IdentifyLen = 16
)

// BlockSize is the logical block size: one 4 KiB page, so a single-block
// transfer is one PRP page (plus PRP2 when the buffer is not page-aligned).
const BlockSize = 4096

// MaxIOQueues is the most I/O queue pairs the controller exposes.
const MaxIOQueues = 4

// MaxQueueEntries bounds SQ/CQ ring sizes (MQES).
const MaxQueueEntries = 256

// Params tunes the controller's internal engines. Per-command costs
// serialise within one I/O queue pair only; the admin queue is control
// plane and executes inline.
type Params struct {
	// CmdOverhead is the fixed per-command engine cost (SQE fetch
	// scheduling, completion posting), on top of media and DMA time.
	CmdOverhead sim.Duration
	// MediaPerByte is the flash array's per-byte access time.
	MediaPerByte float64
	// IOQueues is the number of I/O queue pairs (1..MaxIOQueues; 0
	// means 1).
	IOQueues int
	// Blocks is the media capacity in logical blocks (0 picks 4096,
	// a 16 MiB device).
	Blocks uint64
	// CacheBlocks is the volatile write cache capacity in logical
	// blocks. 0 models the always-durable part every earlier PR
	// measured (writes land on media, CmdFlush is a fixed-cost no-op).
	// With a cache, non-FUA writes land in volatile RAM and become
	// durable only on eviction, CmdFlush, or FUA — and PowerFail
	// discards whatever was not yet drained.
	CacheBlocks int
}

// DefaultParams models a single-queue NVMe-lite part: ~2.5 µs command
// overhead plus ~1.6 µs media time per 4 KiB block (~240 Kops/s per queue
// ceiling before DMA time).
func DefaultParams() Params {
	return Params{
		CmdOverhead:  2500 * sim.Nanosecond,
		MediaPerByte: 0.4,
	}
}

// MultiQueueParams is DefaultParams with queues I/O queue pairs.
func MultiQueueParams(queues int) Params {
	p := DefaultParams()
	p.IOQueues = queues
	return p
}

// CachedParams is MultiQueueParams with a volatile write cache of
// cacheBlocks logical blocks.
func CachedParams(queues, cacheBlocks int) Params {
	p := MultiQueueParams(queues)
	p.CacheBlocks = cacheBlocks
	return p
}

// sqState is one submission queue as the controller sees it.
type sqState struct {
	created bool
	base    mem.Addr
	size    uint32 // entries
	head    uint32 // controller-side consumer index
	cqid    int
}

// cqState is one completion queue as the controller sees it.
type cqState struct {
	created bool
	base    mem.Addr
	size    uint32
	tail    uint32 // controller-side producer index
	phase   bool   // current phase tag (starts true, flips per wrap)
}

// Ctrl is one NVMe-lite controller instance.
type Ctrl struct {
	pci.FuncBase

	loop   *sim.Loop
	params Params

	regs  map[uint64]uint32
	ready bool
	tr    *trace.Tracer

	// media holds, by LBA chunk, every block ever written: by a direct
	// write, a cache drain or SeedMedia. A nil chunk or a nil block in one
	// has never been written and reads as zeroBlock.
	media  []*mediaChunk
	blocks uint64

	// Volatile write cache: dirty blocks not yet on media, plus their
	// arrival order (FIFO eviction). The cache is device RAM — it
	// survives a controller reset and a driver kill, and is lost only
	// on PowerFail. cacheOrder never holds an LBA twice.
	cache      map[uint64][]byte
	cacheOrder []uint64
	// cacheFree holds the buffers of drained, evicted and overwritten
	// entries for the next cached write: cache RAM is recycled, never
	// reallocated in steady state. It keeps at most CacheBlocks buffers.
	cacheFree [][]byte

	// sqe is the I/O engines' SQE fetch buffer. Each engine step runs to
	// completion before the next is scheduled, so one serves every queue.
	sqe [SQESize]byte
	// cqe is postCQE's entry, built and DMA-written in one call.
	cqe [CQESize]byte

	// Engine steps and the coalesced-interrupt callback, bound once in New.
	ioStepFn [1 + MaxIOQueues]func()
	intFn    func()

	// Queue 0 is the admin pair; 1..MaxIOQueues are I/O pairs.
	sq [1 + MaxIOQueues]sqState
	cq [1 + MaxIOQueues]cqState

	// Per-I/O-queue engine state (index by qid; 0 unused — admin runs
	// inline).
	engineActive    [1 + MaxIOQueues]bool
	engineBusyUntil [1 + MaxIOQueues]sim.Time

	// intPending latches per-CQ completion causes awaiting MSI delivery.
	intPending uint32
	// Interrupt coalescing state (RegINTCOAL).
	lastIntAt   sim.Time
	intDeferred bool

	// Counters.
	Commands               uint64
	ReadBlocks             uint64
	WriteBlocks            uint64
	DMAFaults              uint64
	LBARejects             uint64
	BadCommands            uint64 // malformed/out-of-range SQEs rejected
	BadDoorbells           uint64 // doorbell writes outside any live queue
	SQDoorbellWrites       uint64 // I/O SQ tail MMIO arrivals (coalescing metric)
	CQOverruns             uint64
	InterruptsRaised       uint64
	InterruptsSuppressedBy uint64

	// Durability counters — the ground truth the FlushLie attack row and
	// the crash-consistency harness attribute lies against: what the
	// driver told the kernel versus what actually reached the device.
	Flushes        uint64 // CmdFlush commands executed
	FlushedBlocks  uint64 // dirty blocks drained by CmdFlush
	FUAWrites      uint64 // writes carrying the FUA flag
	CacheEvictions uint64 // dirty blocks drained by capacity eviction
	CacheHits      uint64 // reads served from the dirty cache
	PowerFails     uint64 // PowerFail invocations
	LostBlocks     uint64 // dirty blocks discarded by the last PowerFail
}

// New creates an NVMe-lite controller with the given identity and BAR0
// base. It must then be attached to the fabric via Machine.AttachDevice.
func New(loop *sim.Loop, bdf pci.BDF, barBase uint64, p Params) *Ctrl {
	if p.Blocks == 0 {
		p.Blocks = 4096
	}
	c := &Ctrl{
		loop:   loop,
		params: p,
		regs:   make(map[uint64]uint32),
		blocks: p.Blocks,
		media:  make([]*mediaChunk, (p.Blocks+chunkBlocks-1)/chunkBlocks),
		cache:  make(map[uint64][]byte),
	}
	cfg := pci.NewConfigSpace(VendorID, DeviceID, 0x01) // class = mass storage
	cfg.SetBAR(0, barBase, BARSize, false)
	cfg.AddMSICapability()
	c.InitFunc(bdf, cfg)
	cfg.OnMSIChange = func() {
		if !cfg.MSI().Masked {
			c.maybeInterrupt()
		}
	}
	for qid := 1; qid < len(c.ioStepFn); qid++ {
		c.ioStepFn[qid] = func() { c.ioStep(qid) }
	}
	c.intFn = func() {
		c.intDeferred = false
		c.maybeInterrupt()
	}
	c.reset()
	return c
}

// SetTracer hands the controller the machine's tracing plane (called by
// Machine.AttachDevice); engine start/complete span events are keyed by
// (I/O queue, CID).
func (c *Ctrl) SetTracer(tr *trace.Tracer) { c.tr = tr }

// Geometry reports the modelled media shape.
func (c *Ctrl) Geometry() (blockSize int, blocks uint64) { return BlockSize, c.blocks }

// FlushGroundTruth reports the device-side halves of flush-lie
// attribution: CmdFlush commands actually executed and writes that carried
// the FUA flag. The supervisor's policy plane compares these against the
// proxy's issued/acked counters; a driver that acked more barriers than
// the device executed has lied about durability.
func (c *Ctrl) FlushGroundTruth() (flushes, fuaWrites uint64) { return c.Flushes, c.FUAWrites }

// SeedMedia fills block lba with data (test/harness backdoor standing in
// for a factory image; real traffic goes through the queues).
func (c *Ctrl) SeedMedia(lba uint64, data []byte) {
	if lba >= c.blocks {
		return
	}
	copy(c.writeBlock(lba), data)
}

// PeekMedia returns a copy of block lba (tests).
func (c *Ctrl) PeekMedia(lba uint64) []byte {
	if lba >= c.blocks {
		return nil
	}
	return append([]byte(nil), c.readBlock(lba)...)
}

// chunkBlocks is how many LBAs one media chunk indexes: 512 block pointers
// fill one 4-KiB page.
const chunkBlocks = 512

// mediaChunk indexes the blocks of LBAs [n*chunkBlocks, (n+1)*chunkBlocks).
type mediaChunk [chunkBlocks]*[BlockSize]byte

// zeroBlock is what a never-written block reads as. Nothing writes it.
var zeroBlock [BlockSize]byte

// readBlock returns block lba's media contents, to be read only.
func (c *Ctrl) readBlock(lba uint64) []byte {
	if ch := c.media[lba/chunkBlocks]; ch != nil {
		if b := ch[lba%chunkBlocks]; b != nil {
			return b[:]
		}
	}
	return zeroBlock[:]
}

// writeBlock returns block lba's media storage, backing its chunk and then
// the block, zero-filled, on the first write into each.
func (c *Ctrl) writeBlock(lba uint64) []byte {
	ch := c.media[lba/chunkBlocks]
	if ch == nil {
		ch = new(mediaChunk)
		c.media[lba/chunkBlocks] = ch
	}
	b := ch[lba%chunkBlocks]
	if b == nil {
		b = new([BlockSize]byte)
		ch[lba%chunkBlocks] = b
	}
	return b[:]
}

func (c *Ctrl) reset() {
	for k := range c.regs {
		delete(c.regs, k)
	}
	c.ready = false
	c.intPending = 0
	for i := range c.sq {
		c.sq[i] = sqState{}
		c.cq[i] = cqState{}
	}
	// The write cache is device RAM: a controller reset (and thus a
	// driver restart) does not lose it — only PowerFail does. The enable
	// bit returns to its power-on default.
	if c.params.CacheBlocks > 0 {
		c.regs[RegVWC] = VwcEnable
	}
}

// cacheOn reports whether writes currently land in the volatile cache.
func (c *Ctrl) cacheOn() bool {
	return c.params.CacheBlocks > 0 && c.regs[RegVWC]&VwcEnable != 0
}

// DirtyBlocks reports the volatile-cache occupancy: acked writes that
// would be lost by a power failure right now.
func (c *Ctrl) DirtyBlocks() int { return len(c.cache) }

// CacheCapacity reports the modelled cache size in blocks.
func (c *Ctrl) CacheCapacity() int { return c.params.CacheBlocks }

// PowerFail models power loss: every un-flushed cache block is discarded
// and the controller resets. Media contents persist. The crash-consistency
// harness calls this between kill -9 and the verifying restart; LostBlocks
// records how much acked-but-volatile data the failure destroyed.
func (c *Ctrl) PowerFail() {
	c.PowerFails++
	c.LostBlocks = uint64(len(c.cache))
	c.cache = make(map[uint64][]byte)
	c.cacheOrder = c.cacheOrder[:0]
	c.cacheFree = nil
	cc := c.regs[RegCC]
	c.reset()
	c.regs[RegCC] = cc &^ CcEnable
}

// drainOne writes the oldest dirty cache block to media and returns its
// size in bytes (0 when the cache is clean).
func (c *Ctrl) drainOne() int {
	if len(c.cacheOrder) == 0 {
		return 0
	}
	lba := c.cacheOrder[0]
	n := copy(c.cacheOrder, c.cacheOrder[1:])
	c.cacheOrder = c.cacheOrder[:n]
	data, ok := c.cache[lba]
	if !ok {
		return 0
	}
	delete(c.cache, lba)
	copy(c.writeBlock(lba), data)
	c.freeCacheBuf(data)
	return len(data)
}

// cacheBuf returns a block buffer for a cached write to stage into: a
// recycled one when any is free.
func (c *Ctrl) cacheBuf() []byte {
	if n := len(c.cacheFree); n > 0 {
		b := c.cacheFree[n-1]
		c.cacheFree = c.cacheFree[:n-1]
		return b
	}
	return make([]byte, BlockSize)
}

// freeCacheBuf returns a buffer no cache entry references any more.
func (c *Ctrl) freeCacheBuf(b []byte) {
	if len(c.cacheFree) < c.params.CacheBlocks {
		c.cacheFree = append(c.cacheFree, b)
	}
}

// cacheInsert stages one block in the volatile cache, evicting the oldest
// entry to media when the capacity is reached. It returns the extra media
// bytes the eviction moved (charged to the triggering command's engine).
func (c *Ctrl) cacheInsert(lba uint64, data []byte) (evicted int) {
	if old, dirty := c.cache[lba]; dirty {
		c.cache[lba] = data // overwrite in place, order unchanged
		c.freeCacheBuf(old)
		return 0
	}
	if len(c.cache) >= c.params.CacheBlocks {
		evicted = c.drainOne()
		if evicted > 0 {
			c.CacheEvictions++
		}
	}
	c.cache[lba] = data
	c.cacheOrder = append(c.cacheOrder, lba)
	return evicted
}

func (c *Ctrl) ioQueues() int {
	q := c.params.IOQueues
	if q < 1 {
		return 1
	}
	if q > MaxIOQueues {
		return MaxIOQueues
	}
	return q
}

// capWord assembles the read-only CAP register.
func (c *Ctrl) capWord() uint32 {
	return uint32(MaxQueueEntries-1) | uint32(c.ioQueues())<<16
}

// --- register decode --------------------------------------------------------

// MMIORead implements pci.Device.
func (c *Ctrl) MMIORead(bar int, off uint64, size int) uint64 {
	if bar != 0 {
		return ^uint64(0)
	}
	switch off {
	case RegCAP:
		return uint64(c.capWord())
	case RegVS:
		return 0x00010400 // 1.4
	case RegCSTS:
		if c.ready {
			return CstsReady
		}
		return 0
	case RegINTMS, RegINTMC:
		return uint64(c.regs[RegINTMS])
	case RegVWC:
		// Enable bit plus occupancy; the count is clamped by construction
		// (the cache never exceeds CacheBlocks), so a driver reading this
		// register cannot observe an impossible state.
		return uint64(c.regs[RegVWC]&VwcEnable) | uint64(len(c.cache))<<16
	default:
		return uint64(c.regs[off])
	}
}

// MMIOWrite implements pci.Device.
func (c *Ctrl) MMIOWrite(bar int, off uint64, size int, v uint64) {
	if bar != 0 {
		return
	}
	val := uint32(v)
	switch off {
	case RegCC:
		was := c.regs[RegCC]
		c.regs[RegCC] = val
		if val&CcEnable != 0 && was&CcEnable == 0 {
			c.enable()
		} else if val&CcEnable == 0 && was&CcEnable != 0 {
			cc := c.regs[RegCC] // controller reset clears all queue state
			c.reset()
			c.regs[RegCC] = cc &^ CcEnable
		}
	case RegINTMS:
		c.regs[RegINTMS] |= val
	case RegINTMC:
		c.regs[RegINTMS] &^= val
		c.maybeInterrupt()
	case RegAQA, RegASQL, RegASQH, RegACQL, RegACQH:
		c.regs[off] = val
	case RegVWC:
		// Only the enable bit is writable, and only on a part that has a
		// cache — everything else a driver scribbles here is dropped at
		// the decode, like the doorbell clamp.
		if c.params.CacheBlocks > 0 {
			c.regs[RegVWC] = val & VwcEnable
		}
	default:
		if qid, isCQ, ok := doorbellFor(off); ok {
			c.doorbell(qid, isCQ, val)
			return
		}
		c.regs[off] = val
	}
}

// doorbellFor maps a register offset into the doorbell array: (queue id,
// CQ-head?) — ok for any offset inside the array.
func doorbellFor(off uint64) (qid int, isCQ bool, ok bool) {
	if off < DoorbellBase || off >= DoorbellBase+uint64(2*(1+MaxIOQueues))*DoorbellStride {
		return 0, false, false
	}
	idx := (off - DoorbellBase) / DoorbellStride
	return int(idx / 2), idx%2 == 1, true
}

// SQDoorbell returns queue qid's submission tail doorbell offset.
func SQDoorbell(qid int) uint64 { return DoorbellBase + uint64(2*qid)*DoorbellStride }

// CQDoorbell returns queue qid's completion head doorbell offset.
func CQDoorbell(qid int) uint64 { return DoorbellBase + uint64(2*qid+1)*DoorbellStride }

// doorbell services one doorbell write. Values are clamped into the live
// ring — an out-of-range tail from a buggy or malicious driver degrades to
// a valid index instead of wild fetch state, and doorbells for queues that
// do not exist are dropped and counted.
func (c *Ctrl) doorbell(qid int, isCQ bool, val uint32) {
	if !c.ready {
		c.BadDoorbells++
		return
	}
	if isCQ {
		cq := &c.cq[qid]
		if !cq.created {
			c.BadDoorbells++
			return
		}
		c.regs[CQDoorbell(qid)] = val % cq.size
		// Freeing CQ space may unblock a stalled engine — any engine
		// whose SQ completes into this CQ (createSQ permits fan-in,
		// cqid != qid, as real NVMe does).
		for sqid := 1; sqid <= MaxIOQueues; sqid++ {
			if c.sq[sqid].created && c.sq[sqid].cqid == qid {
				c.kickEngine(sqid)
			}
		}
		return
	}
	sq := &c.sq[qid]
	if !sq.created {
		c.BadDoorbells++
		return
	}
	if qid != 0 {
		// Ground truth for the submit-side doorbell-coalescing metric:
		// I/O SQ tail MMIO arrivals (admin is control plane).
		c.SQDoorbellWrites++
	}
	c.regs[SQDoorbell(qid)] = val % sq.size
	if qid == 0 {
		// Admin commands are control plane: executed inline, no engine
		// time modelled.
		for c.sq[0].created && c.sq[0].head != c.regs[SQDoorbell(0)] {
			c.adminStep()
		}
		return
	}
	c.kickEngine(qid)
}

// --- queue plumbing ---------------------------------------------------------

func (c *Ctrl) enable() {
	aqa := c.regs[RegAQA]
	asqs := aqa&0xFFF + 1
	acqs := (aqa>>16)&0xFFF + 1
	if asqs > MaxQueueEntries {
		asqs = MaxQueueEntries
	}
	if acqs > MaxQueueEntries {
		acqs = MaxQueueEntries
	}
	c.sq[0] = sqState{
		created: true,
		base:    mem.Addr(uint64(c.regs[RegASQH])<<32 | uint64(c.regs[RegASQL])),
		size:    asqs,
		cqid:    0,
	}
	c.cq[0] = cqState{
		created: true,
		base:    mem.Addr(uint64(c.regs[RegACQH])<<32 | uint64(c.regs[RegACQL])),
		size:    acqs,
		phase:   true,
	}
	c.ready = true
}

// postCQE writes one completion entry to CQ cqid and latches its interrupt
// cause. It reports false when the CQ is full (the engine must stall). The
// writeback TLP is stamped with the CQ's stream tag — the ring belongs to
// that queue's sub-domain; the admin CQ (cqid 0) writes untagged.
func (c *Ctrl) postCQE(cqid int, sqid int, cid uint16, result uint32, status uint16) bool {
	cq := &c.cq[cqid]
	if !cq.created {
		return true // nowhere to complete to; drop silently like hardware
	}
	next := (cq.tail + 1) % cq.size
	if next == c.regs[CQDoorbell(cqid)] {
		c.CQOverruns++
		return false
	}
	e := &c.cqe
	*e = [CQESize]byte{}
	putLE32(e[0:4], result)
	putLE16(e[8:10], uint16(c.sq[sqid].head))
	putLE16(e[10:12], uint16(sqid))
	putLE16(e[12:14], cid)
	st := status << 1
	if cq.phase {
		st |= 1
	}
	putLE16(e[14:16], st)
	if err := c.DMAWriteQ(cqid, cq.base+mem.Addr(cq.tail*CQESize), e[:]); err != nil {
		c.DMAFaults++
		return true
	}
	cq.tail = next
	if cq.tail == 0 {
		cq.phase = !cq.phase
	}
	c.intPending |= 1 << uint(cqid)
	c.maybeInterrupt()
	return true
}

// coalesceInterval returns the minimum gap between completion interrupts.
func (c *Ctrl) coalesceInterval() sim.Duration {
	return sim.Duration(c.regs[RegINTCOAL]) * 256
}

func (c *Ctrl) maybeInterrupt() {
	if c.intPending&^c.regs[RegINTMS] == 0 {
		return
	}
	// Interrupt coalescing: completions inside the interval aggregate
	// behind one deferred message, so a busy device interrupts at the
	// programmed rate, not once per command.
	now := c.loop.Now()
	gap := c.coalesceInterval()
	if gap > 0 && now-c.lastIntAt < gap {
		if !c.intDeferred {
			c.intDeferred = true
			c.loop.At(c.lastIntAt+gap, c.intFn)
		}
		return
	}
	// The cause stays latched until a message is actually delivered: with
	// the MSI masked (SUD masks re-raised interrupts until the driver
	// acks, §3.2.2) the unmask path re-fires via OnMSIChange.
	if c.RaiseMSI() {
		c.lastIntAt = now
		c.InterruptsRaised++
		// Only the unmasked causes were delivered; causes for masked
		// CQs stay latched until RegINTMC unmasks them.
		c.intPending &= c.regs[RegINTMS]
	} else {
		c.InterruptsSuppressedBy++
	}
}

// --- admin command execution -------------------------------------------------

func (c *Ctrl) adminStep() {
	sq := &c.sq[0]
	sqe := make([]byte, SQESize) // control plane: not worth a dedicated buffer
	err := c.DMAReadInto(sq.base+mem.Addr(sq.head*SQESize), sqe)
	sq.head = (sq.head + 1) % sq.size
	if err != nil {
		c.DMAFaults++
		return
	}
	c.Commands++
	op := sqe[sqeOpcode]
	cid := le16(sqe[sqeCID : sqeCID+2])
	status := uint16(StatusOK)
	switch op {
	case AdminIdentify:
		var page [IdentifyLen]byte
		putLE64(page[idBlocks:idBlocks+8], c.blocks)
		putLE32(page[idBlkSize:idBlkSize+4], BlockSize)
		putLE16(page[idIOQueues:idIOQueues+2], uint16(c.ioQueues()))
		if c.params.CacheBlocks > 0 {
			page[idVWC] = 1
		}
		if err := c.DMAWrite(mem.Addr(le64(sqe[sqePRP1:sqePRP1+8])), page[:]); err != nil {
			c.DMAFaults++
			status = StatusInvalidField
		}
	case AdminCreateIOCQ:
		status = c.createCQ(sqe)
	case AdminCreateIOSQ:
		status = c.createSQ(sqe)
	case AdminDeleteIOCQ:
		status = c.deleteQueue(sqe, true)
	case AdminDeleteIOSQ:
		status = c.deleteQueue(sqe, false)
	default:
		c.BadCommands++
		status = StatusInvalidOpcode
	}
	c.postCQE(0, 0, cid, 0, status)
}

// qidOf decodes and bounds-checks the queue-management qid field.
func (c *Ctrl) qidOf(sqe []byte) (int, bool) {
	qid := int(le16(sqe[sqeQID : sqeQID+2]))
	if qid < 1 || qid > c.ioQueues() {
		return 0, false
	}
	return qid, true
}

func (c *Ctrl) createCQ(sqe []byte) uint16 {
	qid, ok := c.qidOf(sqe)
	if !ok {
		c.BadCommands++
		return StatusInvalidField
	}
	if c.cq[qid].created {
		c.BadCommands++
		return StatusQueueExists
	}
	size := uint32(le16(sqe[sqeQSize:sqeQSize+2])) + 1
	if size < 2 || size > MaxQueueEntries {
		c.BadCommands++
		return StatusInvalidField
	}
	c.cq[qid] = cqState{
		created: true,
		base:    mem.Addr(le64(sqe[sqePRP1 : sqePRP1+8])),
		size:    size,
		phase:   true,
	}
	c.regs[CQDoorbell(qid)] = 0
	return StatusOK
}

func (c *Ctrl) createSQ(sqe []byte) uint16 {
	qid, ok := c.qidOf(sqe)
	if !ok {
		c.BadCommands++
		return StatusInvalidField
	}
	if c.sq[qid].created {
		c.BadCommands++
		return StatusQueueExists
	}
	cqid := int(le16(sqe[sqeCQID : sqeCQID+2]))
	if cqid < 1 || cqid > c.ioQueues() || !c.cq[cqid].created {
		c.BadCommands++
		return StatusNoQueue
	}
	size := uint32(le16(sqe[sqeQSize:sqeQSize+2])) + 1
	if size < 2 || size > MaxQueueEntries {
		c.BadCommands++
		return StatusInvalidField
	}
	c.sq[qid] = sqState{
		created: true,
		base:    mem.Addr(le64(sqe[sqePRP1 : sqePRP1+8])),
		size:    size,
		cqid:    cqid,
	}
	c.regs[SQDoorbell(qid)] = 0
	return StatusOK
}

func (c *Ctrl) deleteQueue(sqe []byte, isCQ bool) uint16 {
	qid, ok := c.qidOf(sqe)
	if !ok {
		c.BadCommands++
		return StatusInvalidField
	}
	if isCQ {
		if !c.cq[qid].created {
			c.BadCommands++
			return StatusNoQueue
		}
		c.cq[qid] = cqState{}
	} else {
		if !c.sq[qid].created {
			c.BadCommands++
			return StatusNoQueue
		}
		c.sq[qid] = sqState{}
	}
	return StatusOK
}

// --- I/O command engines ------------------------------------------------------

func (c *Ctrl) kickEngine(qid int) {
	sq := &c.sq[qid]
	if c.engineActive[qid] || !sq.created || sq.head == c.regs[SQDoorbell(qid)] {
		return
	}
	c.engineActive[qid] = true
	start := c.engineBusyUntil[qid]
	if now := c.loop.Now(); start < now {
		start = now
	}
	c.loop.At(start, c.ioStepFn[qid])
}

// ioStep processes one I/O command on queue qid, then reschedules itself
// after the engine's command time. Queues step independently: engine and
// media time serialise within a queue only.
func (c *Ctrl) ioStep(qid int) {
	c.engineActive[qid] = false
	sq := &c.sq[qid]
	if !sq.created || sq.head == c.regs[SQDoorbell(qid)] {
		return
	}
	sqe := c.sqe[:]
	err := c.DMAReadIntoQ(qid, sq.base+mem.Addr(sq.head*SQESize), sqe)
	engine := c.params.CmdOverhead + sim.DMA(SQESize)
	if err != nil {
		c.DMAFaults++
		sq.head = (sq.head + 1) % sq.size
		c.finishIO(qid, engine)
		return
	}
	c.Commands++
	op := sqe[sqeOpcode]
	cid := le16(sqe[sqeCID : sqeCID+2])
	c.tr.Event(trace.ClassDev, qid, uint64(cid), trace.HopDevStart)
	status := uint16(StatusOK)

	switch op {
	case CmdFlush:
		// Drain the volatile cache to media with real drain time: one
		// media write per dirty block. On an always-durable part (or a
		// clean cache) this degenerates to the fixed-cost barrier every
		// earlier PR measured.
		drained := 0
		for len(c.cacheOrder) > 0 {
			n := c.drainOne()
			engine += sim.Duration(c.params.MediaPerByte * float64(n))
			if n > 0 {
				drained++
			}
		}
		c.Flushes++
		c.FlushedBlocks += uint64(drained)
	case CmdRead, CmdWrite:
		status = c.execRW(qid, sqe, op == CmdWrite, &engine)
	default:
		c.BadCommands++
		status = StatusInvalidOpcode
	}

	sq.head = (sq.head + 1) % sq.size
	if !c.postCQE(sq.cqid, qid, cid, 0, status) {
		// CQ full: the engine stalls with the command unconsumed; the CQ
		// head doorbell re-kicks processing once software frees entries.
		sq.head = (sq.head - 1 + sq.size) % sq.size
		now := c.loop.Now()
		if c.engineBusyUntil[qid] < now {
			c.engineBusyUntil[qid] = now
		}
		c.engineBusyUntil[qid] += engine
		return
	}
	c.tr.Event(trace.ClassDev, qid, uint64(cid), trace.HopDevComplete)
	c.finishIO(qid, engine)
}

// execRW performs one single-block read or write: LBA bounds are checked
// before any DMA (an out-of-range LBA is rejected with media untouched),
// and the data moves through PRP1/PRP2 — crossing into the PRP2 page when
// the buffer is not page-aligned, as NVMe PRPs do for 4 KiB transfers.
//
// With the volatile cache enabled, a non-FUA write lands in cache RAM (no
// media time; a capacity eviction drains the oldest block and charges its
// media time to this command) and a read is served from the cache when the
// dirty copy is newer than media. A FUA write — or any write with the
// cache absent or disabled — pays full media time and lands durable.
//
// All payload DMA carries qid as its stream tag: the PRPs a queue's SQE
// names are walked in that queue's IOMMU sub-domain, so a descriptor naming
// a sibling queue's buffer faults instead of reading it.
func (c *Ctrl) execRW(qid int, sqe []byte, write bool, engine *sim.Duration) uint16 {
	if nlb := le16(sqe[sqeNLB : sqeNLB+2]); nlb != 0 {
		// NVMe-lite: exactly one logical block per command.
		c.BadCommands++
		return StatusInvalidField
	}
	lba := le64(sqe[sqeSLBA : sqeSLBA+8])
	if lba >= c.blocks {
		c.LBARejects++
		return StatusLBARange
	}
	prp1 := mem.Addr(le64(sqe[sqePRP1 : sqePRP1+8]))
	prp2 := mem.Addr(le64(sqe[sqePRP2 : sqePRP2+8]))
	first := BlockSize - int(uint64(prp1)%mem.PageSize)
	if first > BlockSize {
		first = BlockSize
	}
	rest := BlockSize - first

	if write {
		fua := sqe[sqeFlags]&SqeFlagFUA != 0
		cached := c.cacheOn() && !fua
		// Cached writes stage in a cache buffer (recycled cache RAM);
		// direct writes — FUA, or no cache — land straight in media, so
		// the default configuration pays no staging copy. Each PRP chunk
		// lies inside one page, so a faulting chunk leaves its part of dst
		// untouched: a direct write that faults on PRP2 has written the
		// PRP1 part of the block, as a torn DMA does.
		var dst []byte
		if cached {
			dst = c.cacheBuf()
		} else {
			dst = c.writeBlock(lba)
		}
		err := c.DMAReadIntoQ(qid, prp1, dst[:first])
		*engine += sim.DMA(first)
		if err == nil && rest > 0 {
			err = c.DMAReadIntoQ(qid, prp2, dst[first:])
			*engine += sim.DMA(rest)
		}
		if err != nil {
			c.DMAFaults++
			*engine += sim.Duration(c.params.MediaPerByte * BlockSize)
			if cached {
				c.freeCacheBuf(dst)
			}
			return StatusInvalidField
		}
		if fua {
			c.FUAWrites++
		}
		if cached {
			evicted := c.cacheInsert(lba, dst)
			*engine += sim.Duration(c.params.MediaPerByte * float64(evicted))
		} else {
			*engine += sim.Duration(c.params.MediaPerByte * BlockSize)
			// A direct media write supersedes any older dirty copy: the
			// stale cache entry must not drain over it later.
			c.cacheDrop(lba)
		}
		c.WriteBlocks++
		return StatusOK
	}
	src := c.readBlock(lba)
	if dirty, ok := c.cache[lba]; ok {
		// The cache holds the newest copy; serving it costs no media time.
		src = dirty
		c.CacheHits++
	} else {
		*engine += sim.Duration(c.params.MediaPerByte * BlockSize)
	}
	if err := c.DMAWriteQ(qid, prp1, src[:first]); err != nil {
		c.DMAFaults++
		return StatusInvalidField
	}
	*engine += sim.DMA(first)
	if rest > 0 {
		if err := c.DMAWriteQ(qid, prp2, src[first:BlockSize]); err != nil {
			c.DMAFaults++
			return StatusInvalidField
		}
		*engine += sim.DMA(rest)
	}
	c.ReadBlocks++
	return StatusOK
}

// cacheDrop removes lba's dirty entry (superseded by a direct media write).
func (c *Ctrl) cacheDrop(lba uint64) {
	data, ok := c.cache[lba]
	if !ok {
		return
	}
	delete(c.cache, lba)
	c.freeCacheBuf(data)
	for i, l := range c.cacheOrder {
		if l == lba {
			c.cacheOrder = append(c.cacheOrder[:i], c.cacheOrder[i+1:]...)
			break
		}
	}
}

func (c *Ctrl) finishIO(qid int, engine sim.Duration) {
	now := c.loop.Now()
	if c.engineBusyUntil[qid] < now {
		c.engineBusyUntil[qid] = now
	}
	c.engineBusyUntil[qid] += engine
	sq := &c.sq[qid]
	if sq.created && sq.head != c.regs[SQDoorbell(qid)] {
		c.engineActive[qid] = true
		c.loop.At(c.engineBusyUntil[qid], c.ioStepFn[qid])
	}
}

// IORead/IOWrite: no IO BAR.
func (c *Ctrl) IORead(bar int, off uint64, size int) uint32     { return 0xFFFFFFFF }
func (c *Ctrl) IOWrite(bar int, off uint64, size int, v uint32) {}

// --- little-endian helpers ----------------------------------------------------

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putLE16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }

func putLE32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
