package sudml_test

import (
	"bytes"
	"testing"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/nvmed"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/blockdev"
	"sud/internal/pci"
	"sud/internal/proxy/blkproxy"
	"sud/internal/proxy/protocol"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/uchan"
)

// blkWorld is one machine with the NVMe-lite controller driven by an
// untrusted nvmed process over a Q-ring channel.
type blkWorld struct {
	m    *hw.Machine
	k    *kernel.Kernel
	ctrl *nvme.Ctrl
	proc *sudml.Process
	dev  *blockdev.Dev
}

func newBlkWorld(t *testing.T, queues int) *blkWorld {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(queues))
	m.AttachDevice(ctrl)
	proc, err := sudml.StartQ(k, ctrl, nvmed.NewQ(queues), "nvmed", 1200, queues)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := k.Blk.Dev("nvme0")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Up(); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(100 * sim.Microsecond)
	return &blkWorld{m: m, k: k, ctrl: ctrl, proc: proc, dev: dev}
}

func block(fill byte) []byte { return bytes.Repeat([]byte{fill}, nvme.BlockSize) }

func TestSUDBlockWriteReadRoundTrip(t *testing.T) {
	for _, queues := range []int{1, 4} {
		w := newBlkWorld(t, queues)
		pattern := block(0x5C)
		var wErr error
		done := false
		if err := w.dev.WriteAt(17, pattern, func(err error) { wErr, done = err, true }); err != nil {
			t.Fatal(err)
		}
		w.m.Loop.RunFor(5 * sim.Millisecond)
		if !done || wErr != nil {
			t.Fatalf("Q=%d write: done=%v err=%v", queues, done, wErr)
		}
		if !bytes.Equal(w.ctrl.PeekMedia(17), pattern) {
			t.Fatalf("Q=%d: write did not reach media", queues)
		}
		var got []byte
		if err := w.dev.ReadAt(17, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append([]byte(nil), data...)
		}); err != nil {
			t.Fatal(err)
		}
		w.m.Loop.RunFor(5 * sim.Millisecond)
		if !bytes.Equal(got, pattern) {
			t.Fatalf("Q=%d: read back wrong data", queues)
		}
	}
}

func TestSUDBlockCompletionsBatchOnMultiQueue(t *testing.T) {
	w := newBlkWorld(t, 4)
	done := 0
	for i := 0; i < 200; i++ {
		if err := w.dev.ReadAt(uint64(i%32), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read %v", err)
			}
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.m.Loop.RunFor(20 * sim.Millisecond)
	if done != 200 {
		t.Fatalf("completed %d/200", done)
	}
	if w.proc.BlkBatches == 0 {
		t.Fatal("no batched completion downcalls on a multi-queue channel")
	}
	// Every queue pair saw traffic and completions were validated as
	// zero-copy references, not inline bounces.
	var comps uint64
	for q := 0; q < 4; q++ {
		comps += w.proc.Blk.QueueComps[q]
		if w.dev.Queue(q).Completions == 0 {
			t.Fatalf("queue %d idle", q)
		}
	}
	if comps < 200 {
		t.Fatalf("proxy saw %d completions", comps)
	}
}

func TestSUDBlockForgedCompletionRefRejected(t *testing.T) {
	w := newBlkWorld(t, 2)
	// A malicious driver process forges completion downcalls pointing at
	// IOVAs it does not own (below the DMA window, and far above it). The
	// proxy must reject the references — counted, and the affected tag
	// failed rather than fed attacker-chosen kernel bytes.
	var got []byte
	var gotErr error
	completed := false
	if err := w.dev.ReadAtQ(3, 0, func(data []byte, err error) {
		got, gotErr, completed = append([]byte(nil), data...), err, true
	}); err != nil {
		t.Fatal(err)
	}
	// Forge before the honest driver's interrupt path can answer: tag 0
	// is the first tag the block core allocates.
	for _, iova := range []uint64{0x1000, 1 << 60} {
		if err := w.proc.Chan.DownQ(0, uchan.Msg{Op: blkproxy.OpComplete,
			Args: [6]uint64{0, 0, iova, uint64(nvme.BlockSize)}}); err != nil {
			t.Fatal(err)
		}
	}
	w.proc.Chan.Flush()
	if !completed {
		t.Fatal("forged completion not processed")
	}
	if gotErr == nil || got != nil {
		t.Fatalf("forged reference delivered data: %v err=%v", got, gotErr)
	}
	if w.proc.Blk.CompInvalidRef == 0 {
		t.Fatal("invalid reference not counted")
	}
}

func TestSUDBlockMalformedBatchDropped(t *testing.T) {
	w := newBlkWorld(t, 2)
	bad := [][]byte{
		{},
		{0xFF, 0xFF, 1, 2, 3},
		append(blkproxy.AppendBlkBatch(nil, []blkproxy.CompRef{{Tag: 5}}), 0xAA),
	}
	for _, b := range bad {
		if err := w.proc.Chan.DownQ(1, uchan.Msg{Op: blkproxy.OpCompleteBatch, Data: b}); err != nil {
			t.Fatal(err)
		}
	}
	w.proc.Chan.Flush()
	if w.proc.Blk.CompBadBatch != uint64(len(bad)) {
		t.Fatalf("CompBadBatch = %d, want %d", w.proc.Blk.CompBadBatch, len(bad))
	}
	// The device still works afterwards.
	ok := false
	if err := w.dev.ReadAt(0, func(_ []byte, err error) { ok = err == nil }); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)
	if !ok {
		t.Fatal("device wedged by malformed batches")
	}
}

func TestSUDBlockKillFailsInflightAndRestartSurvives(t *testing.T) {
	w := newBlkWorld(t, 2)
	pattern := block(0x77)
	if err := w.dev.WriteAt(9, pattern, func(error) {}); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)

	var inflightErr error
	if err := w.dev.ReadAt(9, func(_ []byte, err error) { inflightErr = err }); err != nil {
		t.Fatal(err)
	}
	w.proc.Kill()
	if inflightErr == nil {
		t.Fatal("in-flight request survived process death unanswered")
	}
	if _, err := w.k.Blk.Dev("nvme0"); err == nil {
		t.Fatal("device still registered after kill")
	}

	// A fresh process binds the same controller; media survives.
	proc2, err := sudml.StartQ(w.k, w.ctrl, nvmed.NewQ(2), "nvmed", 1201, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer proc2.Kill()
	dev2, err := w.k.Blk.Dev("nvme0")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev2.Up(); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := dev2.ReadAt(9, func(data []byte, err error) {
		if err != nil {
			t.Errorf("read after restart: %v", err)
			return
		}
		got = append([]byte(nil), data...)
	}); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)
	if !bytes.Equal(got, pattern) {
		t.Fatal("media lost across kill/restart")
	}
}

// TestSUDBlockReadDataStableUnderSlotReuse is the slot-reuse TOCTOU
// regression: a read completion's zero-copy reference must be guard-copied
// before the driver's pool slot can be reused by a held submission drained
// in the same interrupt dispatch. A saturated queue with mixed reads and
// writes exercises exactly that interleaving; every read must return its
// LBA's own pattern, never a concurrent write's payload for another block.
func TestSUDBlockReadDataStableUnderSlotReuse(t *testing.T) {
	for _, queues := range []int{1, 2} {
		w := newBlkWorld(t, queues)
		const span = 40 // LBAs in play, each holding its own fill byte
		for lba := uint64(0); lba < span; lba++ {
			w.ctrl.SeedMedia(lba, block(byte(lba)))
		}
		reads, bad := 0, 0
		var issue func(seq uint64)
		issue = func(seq uint64) {
			lba := (seq * 7) % span
			if seq%3 == 0 {
				// Writes keep every block's invariant fill byte, so any
				// cross-block corruption is visible to the reads.
				_ = w.dev.WriteAt(lba, block(byte(lba)), func(error) {
					w.m.Loop.After(200, func() { issue(seq + span) })
				})
				return
			}
			err := w.dev.ReadAt(lba, func(data []byte, err error) {
				if err == nil {
					reads++
					for _, b := range data {
						if b != byte(lba) {
							bad++
							break
						}
					}
				}
				w.m.Loop.After(200, func() { issue(seq + span) })
			})
			if err != nil {
				w.m.Loop.After(10*sim.Microsecond, func() { issue(seq) })
			}
		}
		// Far more outstanding than one queue's 64-deep hardware queue, so
		// submissions wait in the hold queue and drain on completion IRQs.
		for j := uint64(0); j < 160; j++ {
			issue(j)
		}
		w.m.Loop.RunFor(30 * sim.Millisecond)
		if reads < 500 {
			t.Fatalf("Q=%d: only %d reads completed", queues, reads)
		}
		if bad != 0 {
			t.Fatalf("Q=%d: %d/%d reads returned another block's data", queues, bad, reads)
		}
	}
}

func TestSUDBlockPerQueuePools(t *testing.T) {
	w := newBlkWorld(t, 4)
	// The proxy's shared-slot pools and the driver's data pools are
	// per-queue device-file allocations: distinct IOMMU-visible objects,
	// one per queue (groundwork for per-queue IOMMU domains).
	if got := len(w.proc.Blk.Pools()); got != 4 {
		t.Fatalf("proxy pools = %d, want 4", got)
	}
	labels := map[string]bool{}
	for _, a := range w.proc.DF.Allocs() {
		labels[a.Label] = true
	}
	for q := 0; q < 4; q++ {
		if !labels[blkPoolLabel(q)] {
			t.Fatalf("missing per-queue pool %q in device-file allocs", blkPoolLabel(q))
		}
	}
}

func blkPoolLabel(q int) string {
	return "blk q" + string(rune('0'+q)) + " slot pool"
}

// TestSUDRecycleRoundTripAllocatesNothing pins the page-flip recycle lane
// on a Q=4 block process: a recycle upcall is drained by the runtime, whose
// frame is decoded into caller storage and handed to the page-aware driver,
// echoed back as an ack downcall, decoded by DecodeSlot and again by the
// proxy's epoch check. Once warm, the round trip allocates nothing.
func TestSUDRecycleRoundTripAllocatesNothing(t *testing.T) {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(4))
	m.AttachDevice(ctrl)
	proc, err := sudml.StartQ(k, ctrl, nvmed.NewFlipQ(4), "nvmed", 1200, 4)
	if err != nil {
		t.Fatal(err)
	}
	proc.Blk.GuardMode = blkproxy.GuardPageFlip
	dev, err := k.Blk.Dev("nvme0")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Up(); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(100 * sim.Microsecond)

	pages := []uint64{0x7000_0000, 0x7000_1000, 0x7000_2000}
	var frame [protocol.MaxRecycleLen]byte
	run := 0
	if a := testing.AllocsPerRun(50, func() {
		q := run % 4
		run++
		data := protocol.AppendRecycle(frame[:0], uint32(dev.Epoch()), pages)
		if err := proc.Chan.ASend(q, uchan.Msg{Op: blkproxy.OpPageRecycle, Data: data}); err != nil {
			t.Fatal(err)
		}
		m.Loop.RunFor(200 * sim.Microsecond)
	}); a != 0 {
		t.Fatalf("a recycle round trip allocates %v times", a)
	}
	if got := proc.Blk.RecycleAcks; got != 51*uint64(len(pages)) || proc.BadRecycleFrames != 0 ||
		proc.Blk.RecycleBadAck+proc.Blk.RecycleStaleAck != 0 {
		t.Fatalf("acks %d, bad frames %d/%d/%d", got, proc.BadRecycleFrames, proc.Blk.RecycleBadAck, proc.Blk.RecycleStaleAck)
	}
}
