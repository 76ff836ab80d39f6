package e1000

import (
	"bytes"
	"testing"

	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/iommu"
	"sud/internal/irq"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

var testMAC = [6]byte{0x00, 0x1B, 0x21, 0xAA, 0xBB, 0xCC}

// rig is a machine + NIC + identity-mapped IOMMU domain + a peer endpoint
// capturing wire frames.
type rig struct {
	m    *hw.Machine
	nic  *NIC
	link *ethlink.Link
	peer *captureEnd
	dom  *iommu.Domain

	txRing, rxRing mem.Addr
	bufs           mem.Addr
	ringLen        uint32
}

type captureEnd struct{ frames [][]byte }

func (c *captureEnd) LinkDeliver(f []byte) { c.frames = append(c.frames, bytes.Clone(f)) }

func newRig(t *testing.T) *rig {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	nic := New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, testMAC, DefaultParams())
	// What pci_enable_device + pci_set_master would do.
	nic.Config().Write(pci.CfgCommand, 2, pci.CmdMemSpace|pci.CmdBusMaster)
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &captureEnd{}
	link.Connect(nic, peer)
	nic.AttachLink(link, 0)

	// Identity-map a DMA arena for rings and buffers.
	dom := m.IOMMU.NewDomain()
	ringPages, _ := m.Alloc.AllocPages(2)
	bufPages, _ := m.Alloc.AllocPages(32)
	if err := dom.MapRange(ringPages, ringPages, 2*mem.PageSize, iommu.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := dom.MapRange(bufPages, bufPages, 32*mem.PageSize, iommu.PermRW); err != nil {
		t.Fatal(err)
	}
	m.IOMMU.Attach(nic.BDF(), dom)

	r := &rig{
		m: m, nic: nic, link: link, peer: peer, dom: dom,
		txRing: ringPages, rxRing: ringPages + mem.PageSize,
		bufs: bufPages, ringLen: 64,
	}
	r.initNIC(t)
	return r
}

// reg32 reads a NIC register through CPU MMIO.
func (r *rig) reg32(t *testing.T, off uint64) uint32 {
	t.Helper()
	v, err := r.m.MMIORead(nil, mem.Addr(0xFEB00000+off), 4)
	if err != nil {
		t.Fatal(err)
	}
	return uint32(v)
}

func (r *rig) wreg32(t *testing.T, off uint64, v uint32) {
	t.Helper()
	if err := r.m.MMIOWrite(nil, mem.Addr(0xFEB00000+off), 4, uint64(v)); err != nil {
		t.Fatal(err)
	}
}

// initNIC programs the rings the way the driver would.
func (r *rig) initNIC(t *testing.T) {
	t.Helper()
	r.wreg32(t, RegCTRL, CtrlSLU)
	r.wreg32(t, RegTDBAL, uint32(r.txRing))
	r.wreg32(t, RegTDLEN, r.ringLen*DescSize)
	r.wreg32(t, RegTDH, 0)
	r.wreg32(t, RegTDT, 0)
	r.wreg32(t, RegRDBAL, uint32(r.rxRing))
	r.wreg32(t, RegRDLEN, r.ringLen*DescSize)
	r.wreg32(t, RegRDH, 0)
	r.wreg32(t, RegRDT, 0)
	r.wreg32(t, RegTCTL, TctlEN)
	r.wreg32(t, RegRCTL, RctlEN)
}

// queueTx writes a TX descriptor + payload and advances TDT.
func (r *rig) queueTx(t *testing.T, payload []byte) {
	t.Helper()
	tail := r.reg32(t, RegTDT)
	buf := r.bufs + mem.Addr(tail)*2048
	r.m.Mem.MustWrite(buf, payload)
	desc := make([]byte, DescSize)
	putLE64(desc[0:8], uint64(buf))
	putLE16(desc[8:10], uint16(len(payload)))
	desc[11] = TxCmdEOP | TxCmdRS
	r.m.Mem.MustWrite(r.txRing+mem.Addr(tail*DescSize), desc)
	r.wreg32(t, RegTDT, (tail+1)%r.ringLen)
}

// replenishRx gives the hardware n free RX descriptors.
func (r *rig) replenishRx(t *testing.T, n uint32) {
	t.Helper()
	tail := r.reg32(t, RegRDT)
	for i := uint32(0); i < n; i++ {
		buf := r.bufs + mem.Addr(16*mem.PageSize) + mem.Addr(tail)*2048
		desc := make([]byte, DescSize)
		putLE64(desc[0:8], uint64(buf))
		r.m.Mem.MustWrite(r.rxRing+mem.Addr(tail*DescSize), desc)
		tail = (tail + 1) % r.ringLen
	}
	r.wreg32(t, RegRDT, tail)
}

func putLE64(b []byte, v uint64) {
	for i := range b[:8] {
		b[i] = byte(v >> (8 * i))
	}
}

func TestEEPROMMACRead(t *testing.T) {
	r := newRig(t)
	for word := 0; word < 3; word++ {
		r.wreg32(t, RegEERD, uint32(word)<<8|EerdStart)
		v := r.reg32(t, RegEERD)
		if v&EerdDone == 0 {
			t.Fatal("EEPROM read never completed")
		}
		data := uint16(v >> 16)
		if data != uint16(testMAC[2*word])|uint16(testMAC[2*word+1])<<8 {
			t.Fatalf("EEPROM word %d = %#x", word, data)
		}
	}
}

func TestStatusLinkUp(t *testing.T) {
	r := newRig(t)
	if r.reg32(t, RegSTATUS)&StatusLU == 0 {
		t.Fatal("link not up after SLU with carrier")
	}
	r.link.SetCarrier(false)
	if r.reg32(t, RegSTATUS)&StatusLU != 0 {
		t.Fatal("link up with carrier down")
	}
}

func TestTransmitOnePacket(t *testing.T) {
	r := newRig(t)
	payload := bytes.Repeat([]byte{0x5A}, 100)
	r.queueTx(t, payload)
	r.m.Loop.Run()
	if len(r.peer.frames) != 1 || !bytes.Equal(r.peer.frames[0], payload) {
		t.Fatalf("peer got %d frames", len(r.peer.frames))
	}
	// DD writeback happened.
	desc := make([]byte, DescSize)
	r.m.Mem.MustRead(r.txRing, desc)
	if desc[12]&TxStaDD == 0 {
		t.Fatal("descriptor not written back with DD")
	}
	if got := r.reg32(t, RegTDH); got != 1 {
		t.Fatalf("TDH = %d, want 1", got)
	}
	if r.nic.TxPackets != 1 || r.nic.TxBytes != 100 {
		t.Fatalf("counters: %d pkts %d bytes", r.nic.TxPackets, r.nic.TxBytes)
	}
}

func TestTransmitBurstOrdering(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 10; i++ {
		r.queueTx(t, []byte{byte(i), 1, 2, 3})
	}
	r.m.Loop.Run()
	if len(r.peer.frames) != 10 {
		t.Fatalf("got %d frames", len(r.peer.frames))
	}
	for i, f := range r.peer.frames {
		if f[0] != byte(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

func TestTxEngineSerialization(t *testing.T) {
	// Small packets leave the engine spaced by at least TxPerPacket:
	// the engine, not the wire, bounds small-packet rate.
	r := newRig(t)
	const n = 8
	for i := 0; i < n; i++ {
		r.queueTx(t, make([]byte, 64))
	}
	// Sample wire arrivals: peer records appends; capture times via a
	// wrapper is overkill — infer from total elapsed instead.
	r.m.Loop.Run()
	if len(r.peer.frames) != n {
		t.Fatalf("wire saw %d frames", len(r.peer.frames))
	}
	// n packets take at least (n-1) engine intervals.
	minElapsed := sim.Duration(n-1) * DefaultParams().TxPerPacket
	if r.m.Now() < minElapsed {
		t.Fatalf("%d packets finished in %v, want >= %v", n, r.m.Now(), minElapsed)
	}
}

func TestReceiveOnePacket(t *testing.T) {
	r := newRig(t)
	r.replenishRx(t, 8)
	frame := bytes.Repeat([]byte{0xA7}, 80)
	r.nic.LinkDeliver(frame)
	r.m.Loop.Run()
	if r.nic.RxPackets != 1 {
		t.Fatalf("RxPackets = %d", r.nic.RxPackets)
	}
	desc := make([]byte, DescSize)
	r.m.Mem.MustRead(r.rxRing, desc)
	if desc[12]&RxStaDD == 0 || desc[12]&RxStaEOP == 0 {
		t.Fatal("RX descriptor missing DD|EOP")
	}
	if le16(desc[8:10]) != 80 {
		t.Fatalf("RX length = %d", le16(desc[8:10]))
	}
	buf := make([]byte, 80)
	r.m.Mem.MustRead(mem.Addr(le64(desc[0:8])), buf)
	if !bytes.Equal(buf, frame) {
		t.Fatal("payload not DMAed into buffer")
	}
}

func TestReceiveWithoutDescriptorsDrops(t *testing.T) {
	r := newRig(t)
	// No replenish: RDH == RDT.
	r.nic.LinkDeliver(make([]byte, 64))
	r.m.Loop.Run()
	if r.nic.RxPackets != 0 || r.nic.RxDropsNoDesc != 1 {
		t.Fatalf("rx=%d drops=%d", r.nic.RxPackets, r.nic.RxDropsNoDesc)
	}
	if r.reg32(t, RegICR)&IntRXO == 0 {
		t.Fatal("overrun cause not latched")
	}
}

func TestRxDisabledIgnoresFrames(t *testing.T) {
	r := newRig(t)
	r.replenishRx(t, 4)
	r.wreg32(t, RegRCTL, 0)
	r.nic.LinkDeliver(make([]byte, 64))
	r.m.Loop.Run()
	if r.nic.RxPackets != 0 {
		t.Fatal("disabled receiver accepted frame")
	}
}

func TestInterruptOnTxAndMasking(t *testing.T) {
	r := newRig(t)
	// Wire MSI: vector 0x41.
	cfg := r.nic.Config()
	off := cfg.MSICapOffset()
	cfg.Write(off+4, 4, 0xFEE00000)
	cfg.Write(off+8, 2, 0x41)
	cfg.Write(off+2, 2, pci.MSICtlEnable)
	var fired int
	if err := r.m.IRQ.Register(0x41, func(irq.Vector) { fired++ }); err != nil {
		t.Fatal(err)
	}
	// Masked (IMS clear): no interrupt.
	r.queueTx(t, make([]byte, 64))
	r.m.Loop.Run()
	if fired != 0 {
		t.Fatal("interrupt fired with IMS clear")
	}
	// Unmask: pending cause fires immediately.
	r.wreg32(t, RegIMS, IntTXDW)
	r.m.Loop.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after unmask", fired)
	}
	// ICR read clears the cause.
	if r.reg32(t, RegICR)&IntTXDW == 0 {
		t.Fatal("TXDW not latched")
	}
	if r.reg32(t, RegICR) != 0 {
		t.Fatal("ICR not cleared by read")
	}
}

func TestITRThrottlesInterrupts(t *testing.T) {
	r := newRig(t)
	cfg := r.nic.Config()
	off := cfg.MSICapOffset()
	cfg.Write(off+4, 4, 0xFEE00000)
	cfg.Write(off+8, 2, 0x42)
	cfg.Write(off+2, 2, pci.MSICtlEnable)
	var fired int
	if err := r.m.IRQ.Register(0x42, func(irq.Vector) { fired++ }); err != nil {
		t.Fatal(err)
	}
	r.wreg32(t, RegIMS, IntTXDW)
	// ITR = 488 * 256ns ≈ 125 µs between interrupts (8000/s).
	r.wreg32(t, RegITR, 488)
	for i := 0; i < 20; i++ {
		r.queueTx(t, make([]byte, 64))
	}
	r.m.Loop.Run()
	// 20 packets in ~60 µs of engine time: with ITR, only 1-2 interrupts.
	if fired > 3 {
		t.Fatalf("ITR did not throttle: %d interrupts", fired)
	}
	if fired == 0 {
		t.Fatal("no interrupt at all")
	}
}

func TestTxDMAFaultOutsideDomain(t *testing.T) {
	r := newRig(t)
	// Point a descriptor's buffer at an unmapped IOVA — the malicious
	// DMA from §5.2. The IOMMU must fault and the wire must stay clean.
	tail := r.reg32(t, RegTDT)
	desc := make([]byte, DescSize)
	putLE64(desc[0:8], 0xDEAD0000)
	putLE16(desc[8:10], 64)
	desc[11] = TxCmdEOP | TxCmdRS
	r.m.Mem.MustWrite(r.txRing+mem.Addr(tail*DescSize), desc)
	r.wreg32(t, RegTDT, (tail+1)%r.ringLen)
	r.m.Loop.Run()
	if r.nic.DMAFaults == 0 {
		t.Fatal("no DMA fault recorded")
	}
	if len(r.peer.frames) != 0 {
		t.Fatal("faulting packet reached the wire")
	}
	if len(r.m.IOMMU.Faults()) == 0 {
		t.Fatal("IOMMU fault log empty")
	}
}

func TestResetClearsState(t *testing.T) {
	r := newRig(t)
	r.wreg32(t, RegIMS, IntTXDW|IntRXT0)
	r.wreg32(t, RegCTRL, CtrlRST)
	if r.reg32(t, RegIMS) != 0 {
		t.Fatal("IMS survived reset")
	}
	// RAL/RAH reload from EEPROM.
	ral := r.reg32(t, RegRAL)
	if byte(ral) != testMAC[0] || byte(ral>>24) != testMAC[3] {
		t.Fatalf("RAL after reset = %#x", ral)
	}
	if r.reg32(t, RegRAH)&(1<<31) == 0 {
		t.Fatal("RAH address-valid bit clear after reset")
	}
}

func TestRxEngineBacklogDrains(t *testing.T) {
	r := newRig(t)
	r.replenishRx(t, 32)
	for i := 0; i < 20; i++ {
		r.nic.LinkDeliver([]byte{byte(i), 0, 0, 0})
	}
	r.m.Loop.Run()
	if r.nic.RxPackets != 20 {
		t.Fatalf("received %d packets, want 20", r.nic.RxPackets)
	}
	if got := r.reg32(t, RegRDH); got != 20 {
		t.Fatalf("RDH = %d, want 20", got)
	}
	// Engine time: at least 20 × RxPerPacket elapsed.
	if r.m.Now() < 20*DefaultParams().RxPerPacket {
		t.Fatal("RX engine faster than its per-packet cost")
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRig(t)
	r.replenishRx(t, 32)
	total := int(r.ringLen) * 2 // force TX ring to wrap twice
	for i := 0; i < total; i++ {
		r.queueTx(t, []byte{byte(i), byte(i >> 8), 0, 0})
		if i%16 == 15 {
			r.m.Loop.Run() // let the engine drain to avoid overfilling
		}
	}
	r.m.Loop.Run()
	if len(r.peer.frames) != total {
		t.Fatalf("wire saw %d frames, want %d", len(r.peer.frames), total)
	}
	_ = sim.Second
}

// countEnd is a wire peer that keeps nothing.
type countEnd struct{ n int }

func (c *countEnd) LinkDeliver([]byte) { c.n++ }

// TestEngineAllocatesNothing pins both engines once warm: a TDT doorbell
// through the queue's bound txStep onto the wire, and frames from the wire
// through LinkDeliver's RX FIFO and the bound rxStep into host memory.
func TestEngineAllocatesNothing(t *testing.T) {
	r := newRig(t)
	peer := &countEnd{}
	r.link.Connect(r.nic, peer)
	txBuf, rxBuf := r.bufs, r.bufs+mem.PageSize
	r.m.Mem.MustWrite(txBuf, bytes.Repeat([]byte{0x5A}, 100))
	for i := uint32(0); i < r.ringLen; i++ {
		desc := make([]byte, DescSize)
		putLE64(desc[0:8], uint64(txBuf))
		putLE16(desc[8:10], 100)
		desc[11] = TxCmdEOP | TxCmdRS
		r.m.Mem.MustWrite(r.txRing+mem.Addr(i*DescSize), desc)
		desc = make([]byte, DescSize)
		putLE64(desc[0:8], uint64(rxBuf))
		r.m.Mem.MustWrite(r.rxRing+mem.Addr(i*DescSize), desc)
	}
	const burst = 8
	frame := bytes.Repeat([]byte{0xA5}, 60)
	var tdt, rdt uint32
	tx := func() {
		tdt = (tdt + burst) % r.ringLen
		r.nic.MMIOWrite(0, RegTDT, 4, uint64(tdt))
		r.m.Loop.Run()
	}
	rx := func() {
		rdt = (rdt + burst) % r.ringLen
		r.nic.MMIOWrite(0, RegRDT, 4, uint64(rdt))
		for i := 0; i < burst; i++ {
			r.nic.LinkDeliver(frame)
		}
		r.m.Loop.Run()
	}
	tx()
	rx()
	if allocs := testing.AllocsPerRun(50, tx); allocs != 0 {
		t.Fatalf("%d TX steps allocate %.0f times, want 0", burst, allocs)
	}
	if allocs := testing.AllocsPerRun(50, rx); allocs != 0 {
		t.Fatalf("%d RX deliveries and steps allocate %.0f times, want 0", burst, allocs)
	}
	if peer.n != 52*burst || r.nic.RxPackets != 52*burst || r.nic.DMAFaults != 0 {
		t.Fatalf("sent %d, received %d (%d DMA faults), want %d each", peer.n, r.nic.RxPackets, r.nic.DMAFaults, 52*burst)
	}
	got := make([]byte, len(frame))
	r.m.Mem.MustRead(rxBuf, got)
	if !bytes.Equal(got, frame) {
		t.Fatal("received frame did not land in the RX buffer")
	}
}
