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
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.DefaultParams())
	m.AttachDevice(ctrl)
	acct := m.CPU.Account("driver:test")
	df := pciaccess.Open(k, ctrl, 1003, acct)
	mc := uchan.NewMulti(m.Loop, k.Acct, []*sim.CPUAccount{acct})
	mc.SetDriverHandler(func(_ int, msg uchan.Msg) (uchan.Msg, bool) { return uchan.Msg{Seq: msg.Seq}, true })
	ki := &KernelIface{Acct: k.Acct, Mem: m.Mem, Blk: k.Blk}
	p, err := New(ki, df, mc, "nvme0", api.BlockGeometry{BlockSize: nvme.BlockSize, Blocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Dev.Up(); err != nil {
		t.Fatal(err)
	}
	return &rig{m: m, p: p, dev: p.Dev}
}

// stage writes a fill pattern into slot s of queue 0's pool, as the driver
// would DMA a block there, and returns the slot's IOVA.
func (r *rig) stage(s int, fill byte) mem.Addr {
	off := mem.Addr(s * nvme.BlockSize)
	r.m.Mem.MustWrite(r.p.pools[0].Phys+off, bytes.Repeat([]byte{fill}, nvme.BlockSize))
	return r.p.pools[0].IOVA + off
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
