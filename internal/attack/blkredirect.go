package attack

import (
	"bytes"
	"fmt"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/api"
	"sud/internal/drivers/nvmed"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/proxy/blkproxy"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/uchan"
)

// blkMediaLBA is the block the victim application reads; the media is
// seeded with blkMediaPattern before the attack.
const blkMediaLBA = 5

func blkMediaPattern() []byte {
	return bytes.Repeat([]byte{0xB1, 0x0C, 0xDA, 0x7A}, nvme.BlockSize/4)
}

// EvilBlkDriver is a malicious storage driver for the NVMe-lite controller.
// It probes like the real nvmed (so either host will load it), registers a
// block device, then misuses its position on command: completing kernel
// reads with buffer references it does not own (trying to redirect the
// "disk data" to kernel secrets), submitting out-of-range LBAs, and aiming
// the controller's DMA at kernel memory.
type EvilBlkDriver struct {
	inst *EvilBlkInstance
}

// NewEvilBlk returns the malicious block driver module.
func NewEvilBlk() *EvilBlkDriver { return &EvilBlkDriver{} }

// Name implements api.Driver (it lies, of course).
func (d *EvilBlkDriver) Name() string { return "nvmed" }

// Match implements api.Driver.
func (d *EvilBlkDriver) Match(vendor, device uint16) bool {
	return vendor == nvme.VendorID && device == nvme.DeviceID
}

// Probe implements api.Driver: bring the controller up exactly like the
// honest driver would, register a block device, and keep the admin queue
// handy for raw command injection.
func (d *EvilBlkDriver) Probe(env api.Env) (api.Instance, error) {
	eb, ok := env.(api.EnvBlock)
	if !ok {
		return nil, fmt.Errorf("evilblk: host does not support block devices")
	}
	inst := &EvilBlkInstance{env: env}
	if err := env.EnableDevice(); err != nil {
		return nil, err
	}
	if err := env.SetMaster(); err != nil {
		return nil, err
	}
	m, err := env.IORemap(0)
	if err != nil {
		return nil, err
	}
	inst.mmio = m
	var errBuf error
	alloc := func(size int) api.DMABuf {
		b, err := env.AllocCoherent(size)
		if err != nil {
			errBuf = err
		}
		return b
	}
	// The injected I/O pair is tagged with its queue's stream (qid 1) —
	// the compromised queue's own engine stamps that tag on the SQE fetch,
	// so the ring must live in the queue's sub-domain for commands to be
	// decoded at all. The malicious PRPs the commands carry still name
	// memory outside that sub-domain and fault at the walk.
	allocQ := func(size, stream int) api.DMABuf {
		b, err := api.AllocCoherentQ(env, size, stream)
		if err != nil {
			errBuf = err
		}
		return b
	}
	inst.asq = alloc(16 * nvme.SQESize)
	inst.acq = alloc(16 * nvme.CQESize)
	inst.isq = allocQ(16*nvme.SQESize, 1)
	inst.icq = allocQ(16*nvme.CQESize, 1)
	inst.buf = allocQ(nvme.BlockSize, 1)
	if errBuf != nil {
		return nil, errBuf
	}
	m.Write32(nvme.RegCC, 0)
	m.Write32(nvme.RegAQA, uint32(15|15<<16))
	m.Write32(nvme.RegASQL, uint32(inst.asq.BusAddr()))
	m.Write32(nvme.RegASQH, uint32(uint64(inst.asq.BusAddr())>>32))
	m.Write32(nvme.RegACQL, uint32(inst.acq.BusAddr()))
	m.Write32(nvme.RegACQH, uint32(uint64(inst.acq.BusAddr())>>32))
	m.Write32(nvme.RegCC, nvme.CcEnable)

	// One I/O queue pair for raw command injection.
	inst.admin(nvme.AdminCreateIOCQ, inst.icq.BusAddr(), 1, 15, 0)
	inst.admin(nvme.AdminCreateIOSQ, inst.isq.BusAddr(), 1, 15, 1)

	bk, err := eb.RegisterBlockDev("nvme0", api.BlockGeometry{
		BlockSize: nvme.BlockSize, Blocks: 4096,
	}, inst)
	if err != nil {
		return nil, err
	}
	inst.blk = bk
	d.inst = inst
	return inst, nil
}

// Instance returns the probed instance.
func (d *EvilBlkDriver) Instance() *EvilBlkInstance { return d.inst }

// EvilBlkInstance is the live malicious block driver.
type EvilBlkInstance struct {
	env  api.Env
	mmio api.MMIO
	blk  api.BlockKernel

	asq, acq api.DMABuf // admin pair
	isq, icq api.DMABuf // injected I/O pair (qid 1)
	buf      api.DMABuf

	adminTail, ioTail int

	// Tags records every submission the kernel handed us — the handles
	// the forged completions will abuse.
	Tags []uint64
}

// Remove implements api.Instance.
func (e *EvilBlkInstance) Remove() {}

// Open/Stop/Queues implement api.BlockDevice just convincingly enough to
// pass bring-up.
func (e *EvilBlkInstance) Open() error { return nil }
func (e *EvilBlkInstance) Stop() error { return nil }
func (e *EvilBlkInstance) Queues() int { return 2 }

// Submit implements api.BlockDevice: the evil driver accepts every request
// and never services it honestly — the recorded tags feed the forgery.
func (e *EvilBlkInstance) Submit(q int, req api.BlockRequest) error {
	e.Tags = append(e.Tags, req.Tag)
	return nil
}

// admin injects one raw admin command (inline execution in the model).
func (e *EvilBlkInstance) admin(op byte, prp mem.Addr, qid, qsizeMinus1, cqid uint16) {
	var sqe [nvme.SQESize]byte
	sqe[0] = op
	sqe[2] = byte(e.adminTail + 1)
	putLE64b(sqe[24:32], uint64(prp))
	putLE16b(sqe[40:42], qid)
	putLE16b(sqe[42:44], qsizeMinus1)
	putLE16b(sqe[44:46], cqid)
	_ = e.asq.Write(e.adminTail*nvme.SQESize, sqe[:])
	e.adminTail = (e.adminTail + 1) % 16
	e.mmio.Write32(nvme.SQDoorbell(0), uint32(e.adminTail))
	e.mmio.Write32(nvme.CQDoorbell(0), uint32(e.adminTail))
}

// injectIO submits one raw I/O command on the injected queue pair.
func (e *EvilBlkInstance) injectIO(op byte, prp mem.Addr, lba uint64) {
	var sqe [nvme.SQESize]byte
	sqe[0] = op
	sqe[2] = byte(e.ioTail + 1)
	putLE64b(sqe[24:32], uint64(prp))
	putLE64b(sqe[40:48], lba)
	_ = e.isq.Write(e.ioTail*nvme.SQESize, sqe[:])
	e.ioTail = (e.ioTail + 1) % 16
	e.mmio.Write32(nvme.SQDoorbell(1), uint32(e.ioTail))
}

func putLE16b(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }

func putLE64b(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// BlkRedirect is the storage redirection attack: a malicious block driver
// (1) completes a kernel read with buffer references it does not own —
// including the kernel secret's physical address — trying to make "disk
// data" out of kernel memory; (2) submits an out-of-range LBA to the
// device; (3) aims the controller's DMA engine at a kernel canary page.
// Under SUD the proxy's defensive completion decode rejects foreign
// references (the read fails instead of returning attacker-chosen bytes),
// the device clamps the LBA before any transfer, and the IOMMU faults the
// wild DMA — and after kill -9 plus an honest restart, the data read back
// through k.Blk is exactly what the media held. A trusted in-kernel driver
// has no such boundary: a block completion is whatever kernel memory the
// driver chooses.
func BlkRedirect(cfg Config) (Outcome, error) {
	if cfg.Mode == InKernel {
		return Outcome{
			Attack:      "block completion redirect",
			Config:      cfg.Name,
			Compromised: true,
			Detail:      "trusted driver: read completions may reference arbitrary kernel memory",
		}, nil
	}

	m := hw.NewMachine(cfg.Platform)
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(2))
	m.AttachDevice(ctrl)
	ctrl.SeedMedia(blkMediaLBA, blkMediaPattern())

	// Kernel canary and secret pages, as in the NIC rig.
	canary, ok := m.Alloc.AllocPages(1)
	if !ok {
		return Outcome{}, fmt.Errorf("attack: out of memory")
	}
	m.Mem.MustWrite(canary, bytes.Repeat([]byte{canaryByte}, mem.PageSize))
	secret, ok := m.Alloc.AllocPages(1)
	if !ok {
		return Outcome{}, fmt.Errorf("attack: out of memory")
	}
	m.Mem.MustWrite(secret, secretPattern)

	evil := NewEvilBlk()
	proc, err := sudml.StartQ(k, ctrl, evil, "evil-nvmed", 1337, 2)
	if err != nil {
		return Outcome{}, err
	}
	dev, err := k.Blk.Dev("nvme0")
	if err != nil {
		return Outcome{}, err
	}
	if err := dev.Up(); err != nil {
		return Outcome{}, err
	}
	m.Loop.RunFor(sim.Millisecond)

	// Phase 1 — forged completion references. The kernel reads a block;
	// the evil driver answers with references it does not own, including
	// the secret page's physical address presented as an "IOVA".
	var got []byte
	var gotErr error
	completed := false
	if err := dev.ReadAtQ(blkMediaLBA, 0, func(b []byte, err error) {
		got, gotErr, completed = append([]byte(nil), b...), err, true
	}); err != nil {
		return Outcome{}, err
	}
	m.Loop.RunFor(sim.Millisecond) // the submit upcall reaches the driver
	inst := evil.Instance()
	if len(inst.Tags) == 0 {
		return Outcome{}, fmt.Errorf("attack: kernel never submitted")
	}
	tag := inst.Tags[0]
	forged := []uint64{uint64(secret), 0x1000, 1 << 60}
	for _, iova := range forged {
		_ = proc.Chan.DownQ(0, uchan.Msg{Op: blkproxy.OpComplete,
			Args: [6]uint64{tag, 0, iova, uint64(nvme.BlockSize)}})
	}
	// And one forged batch with a malformed frame for good measure.
	batch := blkproxy.AppendBlkBatch(nil, []blkproxy.CompRef{
		{Tag: tag, IOVA: uint64(secret), Len: nvme.BlockSize},
	})
	_ = proc.Chan.DownQ(1, uchan.Msg{Op: blkproxy.OpCompleteBatch, Data: append(batch, 0xEE)})
	proc.Chan.Flush()
	m.Loop.RunFor(sim.Millisecond)
	secretLeaked := completed && gotErr == nil && bytes.Contains(got, secretPattern)

	// Phase 1b — the same forgery against the zero-copy fast path. Under
	// GuardPageFlip a page-aligned, exactly-one-block completion is
	// delivered by reference after the page is revoked from the driver's
	// domain — so a forged page-aligned reference at the kernel secret is
	// the flip-specific leak attempt: if the proxy revoked-and-delivered
	// it, kernel memory would become "disk data" with zero copies. The
	// reference must die at ValidateRange (revocation only ever applies
	// to the driver's own pages), failing the read instead.
	proc.Blk.GuardMode = blkproxy.GuardPageFlip
	invalidBefore := proc.Blk.CompInvalidRef
	var gotFlip []byte
	gotFlipErr := error(nil)
	flipCompleted := false
	if err := dev.ReadAtQ(blkMediaLBA, 0, func(b []byte, err error) {
		gotFlip, gotFlipErr, flipCompleted = append([]byte(nil), b...), err, true
	}); err != nil {
		return Outcome{}, err
	}
	m.Loop.RunFor(sim.Millisecond)
	if len(inst.Tags) < 2 {
		return Outcome{}, fmt.Errorf("attack: kernel never submitted the flip-leg read")
	}
	_ = proc.Chan.DownQ(0, uchan.Msg{Op: blkproxy.OpComplete,
		Args: [6]uint64{inst.Tags[len(inst.Tags)-1], 0, uint64(secret), uint64(nvme.BlockSize)}})
	proc.Chan.Flush()
	m.Loop.RunFor(sim.Millisecond)
	flipLeaked := flipCompleted && gotFlipErr == nil && bytes.Contains(gotFlip, secretPattern)
	flipRejected := proc.Blk.CompInvalidRef > invalidBefore
	if !flipLeaked && !flipRejected {
		return Outcome{}, fmt.Errorf("attack: flip-leg forgery was never decoded (invalid refs unchanged at %d)",
			proc.Blk.CompInvalidRef)
	}

	// Phase 2 — device-level redirection: an out-of-range LBA write, and
	// a read DMA-targeted at the kernel canary page.
	lbaRejectsBefore := ctrl.LBARejects
	inst.injectIO(nvme.CmdWrite, inst.buf.BusAddr(), 1<<40)
	inst.injectIO(nvme.CmdRead, mem.Addr(canary), blkMediaLBA)
	m.Loop.RunFor(sim.Millisecond)
	lbaClamped := ctrl.LBARejects > lbaRejectsBefore

	canaryBuf := make([]byte, mem.PageSize)
	canaryIntact := true
	if err := m.Mem.Read(canary, canaryBuf); err == nil {
		for _, b := range canaryBuf {
			if b != canaryByte {
				canaryIntact = false
				break
			}
		}
	}

	// Phase 3 — kill -9, restart an honest driver, and read the block
	// back: the data must be exactly what the media held all along.
	proc.Kill()
	proc2, err := sudml.StartQ(k, ctrl, nvmed.NewQ(2), "nvmed", 1338, 2)
	if err != nil {
		return Outcome{}, err
	}
	_ = proc2
	dev2, err := k.Blk.Dev("nvme0")
	if err != nil {
		return Outcome{}, err
	}
	if err := dev2.Up(); err != nil {
		return Outcome{}, err
	}
	var after []byte
	if err := dev2.ReadAtQ(blkMediaLBA, 0, func(b []byte, err error) {
		if err == nil {
			after = append([]byte(nil), b...)
		}
	}); err != nil {
		return Outcome{}, err
	}
	m.Loop.RunFor(5 * sim.Millisecond)
	mediaIntact := bytes.Equal(after, blkMediaPattern())

	o := Outcome{Attack: "block completion redirect", Config: cfg.Name}
	switch {
	case secretLeaked:
		o.Compromised = true
		o.Detail = "kernel secret delivered as disk data through a forged completion"
	case flipLeaked:
		o.Compromised = true
		o.Detail = "kernel secret flipped into a disk buffer through a forged page-flip completion"
	case !canaryIntact:
		o.Compromised = true
		o.Detail = "device DMA reached the kernel canary page"
	case !lbaClamped:
		o.Compromised = true
		o.Detail = "out-of-range LBA accepted by the device"
	case !mediaIntact:
		o.Compromised = true
		o.Detail = "data read back after restart was attacker-substituted"
	default:
		o.Detail = fmt.Sprintf("forgeries rejected (%d invalid refs incl. the page-flip leg, %d bad tags, %d bad batches), LBA clamped, IOMMU faults: %d, media intact",
			proc.Blk.CompInvalidRef, proc.Blk.CompBadTag, proc.Blk.CompBadBatch, len(m.IOMMU.Faults()))
	}
	return o, nil
}
