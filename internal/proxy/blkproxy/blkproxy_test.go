package blkproxy

import (
	"bytes"
	"testing"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/api"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/blockdev"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/proxy/pciaccess"
	"sud/internal/sim"
	"sud/internal/uchan"
)

// rig is a proxy over a bare device file: the test plays the driver,
// acknowledging upcalls and sending completions itself.
type rig struct {
	m   *hw.Machine
	p   *Proxy
	dev *blockdev.Dev
	mc  *uchan.MultiChan

	// submitted records, per queue, the (tag, slot) of every submission
	// upcall the driver side drained, in order.
	submitted [][][2]uint64
}

func newRig(t *testing.T) *rig { return newRigQ(t, 1) }

func newRigQ(t *testing.T, queues int) *rig {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(queues))
	m.AttachDevice(ctrl)
	accts := m.CPU.QueueAccounts("driver:test", queues)
	df := pciaccess.Open(k, ctrl, 1003, accts[0])
	mc := uchan.NewMulti(m.Loop, k.Acct, accts)
	r := &rig{m: m, mc: mc, submitted: make([][][2]uint64, queues)}
	mc.SetDriverHandler(func(q int, msg uchan.Msg) (uchan.Msg, bool) {
		if msg.Op == OpSubmit {
			r.submitted[q] = append(r.submitted[q], [2]uint64{msg.Args[5], msg.Args[4]})
		}
		return uchan.Msg{Seq: msg.Seq}, true
	})
	ki := &KernelIface{Acct: k.Acct, Mem: m.Mem, Blk: k.Blk}
	p, err := New(ki, df, mc, "nvme0", api.BlockGeometry{BlockSize: nvme.BlockSize, Blocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	mc.SetKernelHandler(p.HandleDowncall)
	if err := p.Dev.Up(); err != nil {
		t.Fatal(err)
	}
	r.p, r.dev = p, p.Dev
	return r
}

// stage writes a fill pattern into slot s of queue 0's pool, as the driver
// would DMA a block there, and returns the slot's IOVA.
func (r *rig) stage(s int, fill byte) mem.Addr {
	off := mem.Addr(s * nvme.BlockSize)
	r.m.Mem.MustWrite(r.p.Pools()[0].Phys+off, bytes.Repeat([]byte{fill}, nvme.BlockSize))
	return r.p.Pools()[0].IOVA + off
}

// complete sends the driver's completion of tag, referencing iova.
func (r *rig) complete(tag uint64, iova mem.Addr) {
	r.p.HandleDowncall(0, uchan.Msg{Op: OpComplete,
		Args: [6]uint64{tag, 0, uint64(iova), nvme.BlockSize}})
}

// TestGuardCopiedCompletionAllocatesNothing pins the guard copy of a read
// completion: the payload lands in a recycled kernel buffer.
func TestGuardCopiedCompletionAllocatesNothing(t *testing.T) {
	r := newRig(t)
	const runs = 50
	delivered := 0
	for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up run
		if err := r.dev.ReadAtQ(uint64(i), 0, func(data []byte, err error) {
			if err == nil && len(data) == nvme.BlockSize && data[0] == 0x5A {
				delivered++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	iova := r.stage(0, 0x5A)
	tag := uint64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		r.complete(tag, iova)
		tag++
	})
	if allocs != 0 {
		t.Fatalf("a guard-copied completion allocates %.0f times, want 0", allocs)
	}
	if delivered != runs+1 || r.p.GuardCopiedBytes != (runs+1)*nvme.BlockSize {
		t.Fatalf("delivered %d, guard-copied %d bytes", delivered, r.p.GuardCopiedBytes)
	}
}

// TestNestedCompletionKeepsOuterPayload delivers a second completion from
// inside the first one's callback: the bytes the first callback holds must
// not change, because the outer guard buffer is still in use.
func TestNestedCompletionKeepsOuterPayload(t *testing.T) {
	r := newRig(t)
	a, b := r.stage(0, 0xAA), r.stage(1, 0xBB)
	// A completed read first, so a recycled buffer is waiting.
	if err := r.dev.ReadAtQ(0, 0, func([]byte, error) {}); err != nil {
		t.Fatal(err)
	}
	r.complete(0, a)

	var inner []byte
	outerRan := false
	if err := r.dev.ReadAtQ(1, 0, func(data []byte, err error) {
		outerRan = true
		held := data
		r.complete(2, b)
		if err != nil || !bytes.Equal(held, bytes.Repeat([]byte{0xAA}, nvme.BlockSize)) {
			t.Errorf("the nested completion changed the outer payload (err %v)", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.dev.ReadAtQ(2, 0, func(data []byte, err error) {
		inner = append([]byte(nil), data...)
	}); err != nil {
		t.Fatal(err)
	}
	r.complete(1, a)
	if !outerRan || !bytes.Equal(inner, bytes.Repeat([]byte{0xBB}, nvme.BlockSize)) {
		t.Fatalf("outer ran %v, inner payload wrong", outerRan)
	}
}

// TestQ4CompletionBatchAllocatesNothing pins the multi-queue completion
// path end to end on the kernel side: a batch of read completions crosses
// a Q=4 ring as slot bytes (DownQ), is flushed, decoded by DecodeSlot into
// a kernel buffer from the free list, decoded again as a completion batch
// into caller storage, guard-copied and completed to the block core — and
// once warm, none of it allocates.
func TestQ4CompletionBatchAllocatesNothing(t *testing.T) {
	const queues, runs, perBatch = 4, 50, 4
	r := newRigQ(t, queues)
	delivered := 0
	done := func(data []byte, err error) {
		if err == nil && len(data) == nvme.BlockSize && data[0] == 0x5A {
			delivered++
		}
	}
	// Every read is submitted up front (AllocsPerRun adds a warm-up run):
	// the measured part is the completions alone.
	for i := 0; i < (runs+1)*perBatch; i++ {
		if err := r.dev.ReadAtQ(uint64(i%64), i/perBatch%queues, done); err != nil {
			t.Fatal(err)
		}
	}
	r.m.Loop.RunFor(sim.Millisecond)
	for q := 0; q < queues; q++ {
		for s := 0; s < SlotsPerQueue; s++ {
			off := mem.Addr(s * nvme.BlockSize)
			r.m.Mem.MustWrite(r.p.Pools()[q].Phys+off, bytes.Repeat([]byte{0x5A}, nvme.BlockSize))
		}
	}
	var comps [perBatch]CompRef
	var frame [MaxBlkBatchLen]byte
	next := make([]int, queues)
	run := 0
	allocs := testing.AllocsPerRun(runs, func() {
		q := run % queues
		run++
		for i := range comps {
			sub := r.submitted[q][next[q]]
			next[q]++
			comps[i] = CompRef{Tag: sub[0], IOVA: uint64(r.p.Pools()[q].IOVA) + sub[1]*nvme.BlockSize, Len: nvme.BlockSize}
		}
		batch := AppendBlkBatch(frame[:0], comps[:])
		if err := r.mc.DownQ(q, uchan.Msg{Op: OpCompleteBatch, Data: batch, Args: [6]uint64{r.p.QueueEpochMirror(q)}}); err != nil {
			t.Fatal(err)
		}
		r.mc.Flush()
	})
	if allocs != 0 {
		t.Fatalf("a Q=4 completion batch allocates %.0f times, want 0", allocs)
	}
	if delivered != (runs+1)*perBatch || r.p.CompBadBatch != 0 || r.mc.BadSlots != 0 {
		t.Fatalf("delivered %d of %d (bad batches %d, bad slots %d)", delivered, (runs+1)*perBatch, r.p.CompBadBatch, r.mc.BadSlots)
	}
}
