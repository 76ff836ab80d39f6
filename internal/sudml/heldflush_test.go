package sudml

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
	"sud/internal/uchan"
)

// TestHeldFlushSurvivesRingReuse: a flush barrier that arrives while its
// queue's hold queue is busy is held, and the upcalls after it reuse the
// ring storage its frame was delivered in. The held barrier must still
// reach the driver with the barrier, epoch and tag the proxy issued, so the
// proxy accepts the echo and the block core's flush completes.
func TestHeldFlushSurvivesRingReuse(t *testing.T) {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(1))
	m.AttachDevice(ctrl)
	p, err := StartQ(k, ctrl, nvmed.NewQ(1), "nvmed", 1200, 1)
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

	// A submission the hardware queue had no room for is waiting, so the
	// barrier behind it is held too.
	p.hold[0].msgs.Push(uchan.Msg{Op: blkproxy.OpSubmit, Args: [6]uint64{0, 0, 0, 0, 0, 1 << 40}})
	flushed := false
	if err := dev.Flush(func(err error) { flushed = err == nil }); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(60 * sim.Microsecond)
	if p.hold[0].msgs.Len() != 2 || p.hold[0].msgs.Peek().Op != blkproxy.OpSubmit {
		t.Fatalf("hold queue holds %d messages, want the submission and the barrier", p.hold[0].msgs.Len())
	}
	// Later upcalls (of an op no block upcall uses) overwrite the ring
	// storage the barrier's frame sat in.
	junk := bytes.Repeat([]byte{0xEE}, blkproxy.FlushOpLen)
	for i := 0; i < 4; i++ {
		if err := p.Chan.ASend(0, uchan.Msg{Op: blkproxy.OpQueueEpoch + 1, Data: junk}); err != nil {
			t.Fatal(err)
		}
		m.Loop.RunFor(60 * sim.Microsecond)
	}
	m.Loop.RunFor(5 * sim.Millisecond)
	if !flushed || p.Blk.FlushesAcked != 1 || p.Blk.CompBadBarrier != 0 || p.BadFlushFrames != 0 {
		t.Fatalf("flushed %v, acked %d, bad barriers %d, bad frames %d",
			flushed, p.Blk.FlushesAcked, p.Blk.CompBadBarrier, p.BadFlushFrames)
	}
}
