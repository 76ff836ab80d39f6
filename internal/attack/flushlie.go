package attack

import (
	"bytes"
	"fmt"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/api"
	"sud/internal/drivers/nvmed"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/pci"
	"sud/internal/proxy/blkproxy"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/uchan"
)

// EvilFlushDriver is a storage driver that lies about durability: it acks
// every write without ever programming the device (so FUA bits are
// dropped with the rest), and acks every flush barrier instantly without
// issuing CmdFlush — the driver-level equivalent of a disk that ignores
// cache-flush commands. It probes convincingly enough to register a
// write-cache block device on either host.
type EvilFlushDriver struct {
	inst *EvilFlushInstance
}

// NewEvilFlush returns the durability-lying block driver module.
func NewEvilFlush() *EvilFlushDriver { return &EvilFlushDriver{} }

// Name implements api.Driver (it lies, of course).
func (d *EvilFlushDriver) Name() string { return "nvmed" }

// Match implements api.Driver.
func (d *EvilFlushDriver) Match(vendor, device uint16) bool {
	return vendor == nvme.VendorID && device == nvme.DeviceID
}

// Probe implements api.Driver: enable the device for appearances, then
// register a block device claiming a volatile write cache.
func (d *EvilFlushDriver) Probe(env api.Env) (api.Instance, error) {
	eb, ok := env.(api.EnvBlock)
	if !ok {
		return nil, fmt.Errorf("evilflush: host does not support block devices")
	}
	if err := env.EnableDevice(); err != nil {
		return nil, err
	}
	if err := env.SetMaster(); err != nil {
		return nil, err
	}
	inst := &EvilFlushInstance{}
	bk, err := eb.RegisterBlockDev("nvme0", api.BlockGeometry{
		BlockSize: nvme.BlockSize, Blocks: 4096, WriteCache: true,
	}, inst)
	if err != nil {
		return nil, err
	}
	inst.blk = bk
	d.inst = inst
	return inst, nil
}

// Instance returns the probed instance.
func (d *EvilFlushDriver) Instance() *EvilFlushInstance { return d.inst }

// EvilFlushInstance is the live lying driver.
type EvilFlushInstance struct {
	blk api.BlockKernel

	// Counters of the lies told.
	WritesSwallowed uint64
	FUADropped      uint64
	FlushesFaked    uint64
}

// Remove implements api.Instance.
func (e *EvilFlushInstance) Remove() {}

// Open/Stop/Queues implement api.BlockDevice just convincingly enough.
func (e *EvilFlushInstance) Open() error { return nil }
func (e *EvilFlushInstance) Stop() error { return nil }
func (e *EvilFlushInstance) Queues() int { return 1 }

// Submit implements api.BlockDevice: every request is acked OK and none is
// serviced — writes (FUA included) never reach the device, flush barriers
// are "completed" with the cache never drained.
func (e *EvilFlushInstance) Submit(q int, req api.BlockRequest) error {
	switch {
	case req.Flush:
		e.FlushesFaked++
	case req.Write:
		e.WritesSwallowed++
		if req.FUA {
			e.FUADropped++
		}
	}
	e.blk.Complete(q, req.Tag, nil, nil)
	return nil
}

// FlushLie is the durability row of the matrix: a driver that acks writes
// and flush barriers without making anything durable — it swallows
// payloads, drops FUA bits, and completes barriers it never gave the
// device — plus forged barrier completions aimed straight at the proxy
// (completing barriers that were never issued, wrong sequence, wrong
// epoch). Under SUD the proxy's per-epoch barrier accounting rejects every
// forged or mis-sequenced FlushDone, and the lie that remains (an honest-
// looking ack for work never done) is fully attributable: the kernel's
// issued/acked counters disagree with the device's own flush/FUA/write
// counters, so after a power failure the lost blocks indict the driver,
// not the application — which did everything (write, FUA, flush) right. A
// trusted in-kernel driver that lies about durability is silently
// corrupting storage with kernel privileges; there is nothing to catch it.
func FlushLie(cfg Config) (Outcome, error) {
	o := Outcome{Attack: "flush/FUA durability lie", Config: cfg.Name}
	if cfg.Mode == InKernel {
		o.Compromised = true
		o.Detail = "trusted driver: fsync returns success with nothing durable; no accounting exists to attribute the loss"
		return o, nil
	}

	m := hw.NewMachine(cfg.Platform)
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.CachedParams(2, 16))
	m.AttachDevice(ctrl)

	// A single-ring channel: the liar completes synchronously inside its
	// submit dispatch, with no interrupt path to pump completion batches.
	evil := NewEvilFlush()
	proc, err := sudml.StartQ(k, ctrl, evil, "evil-nvmed", 1339, 1)
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

	// Phase 1 — the application does everything right: writes, one FUA
	// write, then an fsync-style flush. The lying driver acks it all.
	fill := func(lba uint64) []byte {
		return bytes.Repeat([]byte{byte(lba*17 + 9)}, nvme.BlockSize)
	}
	var writeErrs int
	for lba := uint64(0); lba < 4; lba++ {
		if err := dev.WriteAt(lba, fill(lba), func(err error) {
			if err != nil {
				writeErrs++
			}
		}); err != nil {
			return Outcome{}, err
		}
	}
	if err := dev.WriteAtFUA(4, fill(4), func(err error) {
		if err != nil {
			writeErrs++
		}
	}); err != nil {
		return Outcome{}, err
	}
	m.Loop.RunFor(2 * sim.Millisecond)
	flushAcked := false
	if err := dev.Flush(func(err error) { flushAcked = err == nil }); err != nil {
		return Outcome{}, err
	}
	m.Loop.RunFor(2 * sim.Millisecond)

	// Phase 2 — forged barrier completions from the driver process:
	// completing a barrier never issued, a stale sequence, a foreign
	// epoch, and malformed framing. None may complete an application
	// flush; all must be counted.
	badBarrierBefore := proc.Blk.CompBadBarrier
	if err := dev.Flush(func(error) {}); err != nil {
		return Outcome{}, err
	}
	for _, f := range []blkproxy.FlushOp{
		{Barrier: 999, Epoch: 0, Tag: 0},
		{Barrier: 1, Epoch: 42, Tag: 0},
		{Barrier: 0, Epoch: 0, Tag: 7},
	} {
		_ = proc.Chan.DownQ(0, uchan.Msg{Op: blkproxy.OpFlushDone, Data: blkproxy.AppendFlushOp(nil, f)})
	}
	_ = proc.Chan.DownQ(0, uchan.Msg{Op: blkproxy.OpFlushDone, Data: []byte{0xEE, 0x01}})
	proc.Chan.Flush()
	m.Loop.RunFor(2 * sim.Millisecond)
	forgeriesCounted := proc.Blk.CompBadBarrier >= badBarrierBefore+3 && proc.Blk.CompBadFlushFrame >= 1

	// Phase 3 — attribution. The kernel issued flushes and FUA writes;
	// the device executed none of them. That discrepancy IS the lie,
	// visible without trusting a byte the driver said.
	flushLieEvident := proc.Blk.FlushesAcked > ctrl.Flushes
	fuaLieEvident := proc.Blk.FUAIssued > ctrl.FUAWrites
	writeLieEvident := ctrl.WriteBlocks == 0 && evil.Instance().WritesSwallowed > 0

	// Phase 4 — the crash: kill -9, power failure, honest restart, read
	// back. The app's acked-durable blocks are gone — and the verdict
	// lands on the driver, because the app's own protocol (flush acked
	// with zero device flushes) was provably serviced by a liar.
	proc.Kill()
	ctrl.PowerFail()
	if _, err := sudml.StartQ(k, ctrl, nvmed.NewQ(2), "nvmed", 1340, 2); err != nil {
		return Outcome{}, err
	}
	dev2, err := k.Blk.Dev("nvme0")
	if err != nil {
		return Outcome{}, err
	}
	if err := dev2.Up(); err != nil {
		return Outcome{}, err
	}
	lost := 0
	for lba := uint64(0); lba < 5; lba++ {
		lba := lba
		var got []byte
		if err := dev2.ReadAt(lba, func(b []byte, err error) {
			if err == nil {
				got = append([]byte(nil), b...)
			}
		}); err != nil {
			return Outcome{}, err
		}
		m.Loop.RunFor(5 * sim.Millisecond)
		if !bytes.Equal(got, fill(lba)) {
			lost++
		}
	}

	switch {
	case !forgeriesCounted:
		o.Compromised = true
		o.Detail = fmt.Sprintf("forged barrier completions not rejected (badBarrier=%d badFrame=%d)",
			proc.Blk.CompBadBarrier, proc.Blk.CompBadFlushFrame)
	case !flushAcked:
		o.Compromised = true
		o.Detail = "the lying driver wedged the flush path (barrier never completed)"
	case writeErrs > 0:
		o.Compromised = true
		o.Detail = "writes surfaced errors instead of the lie being absorbed"
	case !flushLieEvident || !fuaLieEvident || !writeLieEvident:
		o.Compromised = true
		o.Detail = fmt.Sprintf(
			"durability lie not attributable (flushes k=%d dev=%d, FUA k=%d dev=%d, writes dev=%d)",
			proc.Blk.FlushesAcked, ctrl.Flushes, proc.Blk.FUAIssued, ctrl.FUAWrites, ctrl.WriteBlocks)
	default:
		o.Detail = fmt.Sprintf(
			"lie attributed to driver: %d flush acks vs %d device flushes, %d FUA vs %d, %d blocks lost to its device only; %d forgeries rejected",
			proc.Blk.FlushesAcked, ctrl.Flushes, proc.Blk.FUAIssued, ctrl.FUAWrites,
			lost, proc.Blk.CompBadBarrier+proc.Blk.CompBadFlushFrame)
	}
	return o, nil
}
