package sudml_test

import (
	"bytes"
	"testing"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/nvmed"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/pci"
	"sud/internal/proxy/blkproxy"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/uchan"
)

// newCachedBlkWorld boots the SUD block world with a volatile write cache
// of cacheBlocks on the controller.
func newCachedBlkWorld(t *testing.T, queues, cacheBlocks int) *blkWorld {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.CachedParams(queues, cacheBlocks))
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

func TestSUDBlockFlushMakesAckedWritesDurable(t *testing.T) {
	w := newCachedBlkWorld(t, 2, 16)
	if !w.dev.Geom.WriteCache {
		t.Fatal("geometry does not mirror the write cache")
	}

	acked := false
	if err := w.dev.WriteAt(7, block(0x3C), func(err error) { acked = err == nil }); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)
	if !acked {
		t.Fatal("write never acked")
	}
	// Acked is not durable: the payload is in the device's volatile
	// cache, media still holds zeroes.
	if bytes.Equal(w.ctrl.PeekMedia(7), block(0x3C)) {
		t.Fatal("write durable before any flush — the cache is not being modelled")
	}
	if w.ctrl.DirtyBlocks() == 0 {
		t.Fatal("no dirty cache blocks after an acked write")
	}

	flushed := false
	if err := w.dev.Flush(func(err error) { flushed = err == nil }); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)
	if !flushed {
		t.Fatal("flush never completed")
	}
	if !bytes.Equal(w.ctrl.PeekMedia(7), block(0x3C)) {
		t.Fatal("flush completed without draining the acked write to media")
	}
	if w.ctrl.Flushes != 1 {
		t.Fatalf("device executed %d flushes, want 1", w.ctrl.Flushes)
	}
	if w.proc.Blk.FlushesIssued != 1 || w.proc.Blk.FlushesAcked != 1 {
		t.Fatalf("proxy accounting: issued=%d acked=%d",
			w.proc.Blk.FlushesIssued, w.proc.Blk.FlushesAcked)
	}
	if w.dev.Flushes != 1 {
		t.Fatalf("block core counted %d barriers", w.dev.Flushes)
	}
}

func TestSUDBlockFUAWriteDurableOnCompletion(t *testing.T) {
	w := newCachedBlkWorld(t, 2, 16)
	acked := false
	if err := w.dev.WriteAtFUA(9, block(0x77), func(err error) { acked = err == nil }); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)
	if !acked {
		t.Fatal("FUA write never acked")
	}
	if !bytes.Equal(w.ctrl.PeekMedia(9), block(0x77)) {
		t.Fatal("FUA completion delivered with the payload still volatile")
	}
	if w.ctrl.FUAWrites != 1 || w.proc.Blk.FUAIssued != 1 {
		t.Fatalf("FUA accounting: device=%d proxy=%d", w.ctrl.FUAWrites, w.proc.Blk.FUAIssued)
	}
}

func TestSUDBlockBarrierParksNewSubmissions(t *testing.T) {
	w := newCachedBlkWorld(t, 2, 16)
	// Saturate with writes, issue a flush, then more writes: everything
	// must complete, in particular nothing may error or deadlock, and
	// the flush must drain every write acked before it.
	var ackedBefore, flushed bool
	var after int
	for lba := uint64(0); lba < 8; lba++ {
		lba := lba
		if err := w.dev.WriteAt(lba, block(byte(lba+1)), func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", lba, err)
			}
			ackedBefore = true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.dev.Flush(func(err error) {
		if err != nil {
			t.Errorf("flush: %v", err)
		}
		flushed = true
	}); err != nil {
		t.Fatal(err)
	}
	for lba := uint64(8); lba < 12; lba++ {
		if err := w.dev.WriteAt(lba, block(byte(lba+1)), func(err error) {
			if err == nil {
				after++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.m.Loop.RunFor(20 * sim.Millisecond)
	if !ackedBefore || !flushed || after != 4 {
		t.Fatalf("ackedBefore=%v flushed=%v after=%d", ackedBefore, flushed, after)
	}
	// Every pre-barrier write is durable (the flush drained them; the
	// post-barrier ones may or may not still be dirty).
	for lba := uint64(0); lba < 8; lba++ {
		if got := w.ctrl.PeekMedia(lba); !bytes.Equal(got, block(byte(lba+1))) {
			if w.ctrl.DirtyBlocks() > 0 {
				// Only post-barrier writes may be volatile; a pre-barrier
				// LBA missing from media is a barrier violation.
				t.Fatalf("pre-barrier write %d not durable after flush", lba)
			}
		}
	}
}

func TestSUDBlockForgedFlushDoneRejected(t *testing.T) {
	w := newCachedBlkWorld(t, 2, 16)

	// No barrier in flight: a FlushDone out of nowhere (a barrier
	// "completed" before it was issued) must be dropped and counted.
	forged := blkproxy.AppendFlushOp(nil, blkproxy.FlushOp{Barrier: 1, Epoch: 0, Tag: 0})
	if err := w.proc.Chan.DownQ(0, uchan.Msg{Op: blkproxy.OpFlushDone, Data: forged}); err != nil {
		t.Fatal(err)
	}
	// Malformed framing is counted separately.
	if err := w.proc.Chan.DownQ(0, uchan.Msg{Op: blkproxy.OpFlushDone, Data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	w.proc.Chan.Flush()
	if w.proc.Blk.CompBadBarrier != 1 || w.proc.Blk.CompBadFlushFrame != 1 {
		t.Fatalf("badBarrier=%d badFrame=%d", w.proc.Blk.CompBadBarrier, w.proc.Blk.CompBadFlushFrame)
	}

	// A real barrier afterwards: forge wrong-sequence and wrong-epoch
	// completions while it is in flight — only the genuine echo may
	// complete it.
	if err := w.dev.WriteAt(3, block(0xEE), func(error) {}); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)
	flushed := false
	if err := w.dev.Flush(func(err error) { flushed = err == nil }); err != nil {
		t.Fatal(err)
	}
	for _, f := range []blkproxy.FlushOp{
		{Barrier: 99, Epoch: 0, Tag: 1}, // wrong sequence
		{Barrier: 1, Epoch: 77, Tag: 1}, // wrong epoch
		{Barrier: 1, Epoch: 0, Tag: 42}, // wrong tag
	} {
		if err := w.proc.Chan.DownQ(0, uchan.Msg{Op: blkproxy.OpFlushDone,
			Data: blkproxy.AppendFlushOp(nil, f)}); err != nil {
			t.Fatal(err)
		}
	}
	w.proc.Chan.Flush()
	if flushed {
		t.Fatal("a forged FlushDone completed the barrier")
	}
	if w.proc.Blk.CompBadBarrier < 3 {
		t.Fatalf("CompBadBarrier = %d, want >= 3 more", w.proc.Blk.CompBadBarrier)
	}
	w.m.Loop.RunFor(10 * sim.Millisecond)
	if !flushed {
		t.Fatal("the honest flush never completed after the forgeries")
	}
	if !bytes.Equal(w.ctrl.PeekMedia(3), block(0xEE)) {
		t.Fatal("flush acked without the write durable")
	}
}
