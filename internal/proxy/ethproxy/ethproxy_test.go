package ethproxy

import (
	"bytes"
	"testing"

	"sud/internal/devices/e1000"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/proxy/pciaccess"
	"sud/internal/sim"
	"sud/internal/uchan"
)

var mac = [6]byte{2, 0, 0, 0, 0, 9}

type rig struct {
	m  *hw.Machine
	k  *kernel.Kernel
	df *pciaccess.DeviceFile
	mc *uchan.MultiChan
	c  *uchan.Chan
	p  *Proxy

	// upcalls captured on the "driver" side.
	upcalls []uchan.Msg
	reply   func(m uchan.Msg) (uchan.Msg, bool)
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, mac, e1000.DefaultParams())
	m.AttachDevice(nic)
	acct := m.CPU.Account("driver:test")
	df := pciaccess.Open(k, nic, 1001, acct)
	mc := uchan.NewMulti(m.Loop, k.Acct, []*sim.CPUAccount{acct})
	r := &rig{m: m, k: k, df: df, mc: mc, c: mc.Queue(0)}
	mc.SetDriverHandler(func(_ int, msg uchan.Msg) (uchan.Msg, bool) {
		r.upcalls = append(r.upcalls, msg)
		if r.reply != nil {
			return r.reply(msg)
		}
		return uchan.Msg{Seq: msg.Seq}, true
	})
	ki := &KernelIface{Acct: k.Acct, Mem: m.Mem, Net: k.Net}
	p, err := New(ki, df, mc, "eth0", mac)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetKernelHandler(func(q int, msg uchan.Msg) { p.HandleDowncall(q, msg) })
	r.p = p
	return r
}

func TestRegistrationCreatesIfaceAndPool(t *testing.T) {
	r := newRig(t)
	if r.p.Ifc.MAC != netstack.MAC(mac) {
		t.Fatal("MAC not mirrored")
	}
	if r.p.FreeSlots() != TxSlots {
		t.Fatalf("pool = %d", r.p.FreeSlots())
	}
	if len(r.df.Allocs()) != 1 || r.df.Allocs()[0].Label != "TX q0 slot pool" {
		t.Fatal("pool not allocated through the device file")
	}
	// A second proxy asking for the same name gets the next free ethN,
	// as the netdev core allocates names for additional NICs.
	ki := &KernelIface{Acct: r.k.Acct, Mem: r.m.Mem, Net: r.k.Net}
	p2, err := New(ki, r.df, r.mc, "eth0", mac)
	if err != nil {
		t.Fatalf("second registration: %v", err)
	}
	if p2.Ifc.Name != "eth1" || ki.IfaceNm != "eth1" {
		t.Fatalf("second proxy named %q, want eth1", p2.Ifc.Name)
	}
}

func TestOpenStopIoctlRoundTrip(t *testing.T) {
	r := newRig(t)
	r.reply = func(m uchan.Msg) (uchan.Msg, bool) {
		rep := uchan.Msg{Seq: m.Seq}
		if m.Op == OpIoctl {
			rep.Data = []byte{0xAB}
		}
		return rep, true
	}
	dev := (*proxyDev)(r.p)
	if err := dev.Open(); err != nil {
		t.Fatal(err)
	}
	out, err := dev.DoIoctl(7, []byte{1})
	if err != nil || out[0] != 0xAB {
		t.Fatalf("ioctl: %v %v", out, err)
	}
	if err := dev.Stop(); err != nil {
		t.Fatal(err)
	}
	// Driver-reported failure propagates.
	r.reply = func(m uchan.Msg) (uchan.Msg, bool) {
		return uchan.Msg{Seq: m.Seq, Args: [6]uint64{1}, Data: []byte("boom")}, true
	}
	if err := dev.Open(); err == nil {
		t.Fatal("driver open failure swallowed")
	}
}

func TestXmitUsesSharedSlotsWithBackpressure(t *testing.T) {
	r := newRig(t)
	dev := (*proxyDev)(r.p)
	frame := bytes.Repeat([]byte{0x3C}, 100)
	for i := 0; i < TxSlots; i++ {
		if err := dev.StartXmit(frame); err != nil {
			t.Fatalf("xmit %d: %v", i, err)
		}
	}
	// Pool exhausted (no XmitDone yet): backpressure.
	if err := dev.StartXmit(frame); err == nil {
		t.Fatal("xmit with empty pool accepted")
	}
	r.m.Loop.Run() // drain upcalls
	if len(r.upcalls) != TxSlots {
		t.Fatalf("driver saw %d xmits", len(r.upcalls))
	}
	// The frame bytes really are in the shared slot the message names.
	msg := r.upcalls[0]
	phys, ok := r.df.PhysFor(mem.Addr(msg.Args[0]))
	if !ok {
		t.Fatal("xmit references unknown memory")
	}
	got := make([]byte, int(msg.Args[1]))
	r.m.Mem.MustRead(phys, got)
	if !bytes.Equal(got, frame) {
		t.Fatal("shared slot content wrong")
	}
	// Return enough slots: queue wakes only past the threshold.
	var woken bool
	r.p.Ifc.OnWake = func() { woken = true }
	for i := 0; i < r.p.WakeThreshold()-1; i++ {
		r.p.HandleDowncall(0, uchan.Msg{Op: OpXmitDone, Args: [6]uint64{uint64(i)}})
	}
	if woken {
		t.Fatal("woke below threshold")
	}
	r.p.HandleDowncall(0, uchan.Msg{Op: OpXmitDone, Args: [6]uint64{uint64(r.p.WakeThreshold())}})
	if !woken {
		t.Fatal("no wake at threshold")
	}
	// Oversized frames and bad slot indices are rejected/ignored.
	if err := dev.StartXmit(make([]byte, TxSlotSize+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	before := r.p.FreeSlots()
	r.p.HandleDowncall(0, uchan.Msg{Op: OpXmitDone, Args: [6]uint64{99999}})
	if r.p.FreeSlots() != before {
		t.Fatal("bogus slot index freed something")
	}
}

// newRigQ is newRig with a 4-ring channel (per-queue service accounts).
func newRigQ(t *testing.T, queues int) *rig {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, mac, e1000.MultiQueueParams(queues))
	m.AttachDevice(nic)
	accts := m.CPU.QueueAccounts("driver:test", queues)
	df := pciaccess.Open(k, nic, 1001, accts[0])
	mc := uchan.NewMulti(m.Loop, k.Acct, accts)
	r := &rig{m: m, k: k, df: df, mc: mc, c: mc.Queue(0)}
	mc.SetDriverHandler(func(_ int, msg uchan.Msg) (uchan.Msg, bool) {
		r.upcalls = append(r.upcalls, msg)
		if r.reply != nil {
			return r.reply(msg)
		}
		return uchan.Msg{Seq: msg.Seq}, true
	})
	ki := &KernelIface{Acct: k.Acct, Mem: m.Mem, Net: k.Net}
	p, err := New(ki, df, mc, "eth0", mac)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetKernelHandler(func(q int, msg uchan.Msg) { p.HandleDowncall(q, msg) })
	r.p = p
	return r
}

// TestBatchedRxDelivery covers the batched RX downcall: a well-formed batch
// delivers every validated reference into its queue's partition, malformed
// framing is dropped and counted, and a poisoned reference inside an
// otherwise valid batch is skipped without sinking its neighbours.
func TestBatchedRxDelivery(t *testing.T) {
	r := newRigQ(t, 4)
	var delivered int
	if _, err := r.k.Net.UDPBind(80, func([]byte, netstack.IP, uint16) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	frame := netstack.AppendUDPFrame(nil, netstack.MAC{9}, netstack.MAC(mac),
		netstack.IP{1}, netstack.IP{2}, 1, 80, []byte("ok"))
	alloc := r.df.Allocs()[0]
	r.m.Mem.MustWrite(alloc.Phys, frame)
	r.m.Mem.MustWrite(alloc.Phys+mem.Addr(2048), frame)

	batch := AppendRxBatch(nil, []RxRef{
		{IOVA: uint64(alloc.IOVA), Len: uint32(len(frame))},
		{IOVA: uint64(alloc.IOVA) + 2048, Len: uint32(len(frame))},
	})
	r.p.HandleDowncall(2, uchan.Msg{Op: OpNetifRxBatch, Data: batch})
	if delivered != 2 {
		t.Fatalf("delivered %d of 2 batched frames", delivered)
	}
	if r.p.RxQueueBatches[2] != 1 || r.p.RxQueueFrames[2] != 2 {
		t.Fatalf("queue 2 partition: %d batches, %d frames",
			r.p.RxQueueBatches[2], r.p.RxQueueFrames[2])
	}
	if r.p.Ifc.Queue(2).RxFrames != 2 {
		t.Fatal("netstack queue context not credited")
	}
	// Malformed framing: dropped and counted, nothing delivered.
	r.p.HandleDowncall(1, uchan.Msg{Op: OpNetifRxBatch, Data: []byte{0xFF, 0xFF, 1}})
	if r.p.RxBadBatch != 1 || delivered != 2 {
		t.Fatalf("malformed batch: bad=%d delivered=%d", r.p.RxBadBatch, delivered)
	}
	// A poisoned reference inside a valid batch: the bad ref is counted,
	// the good one still lands.
	mixed := AppendRxBatch(nil, []RxRef{
		{IOVA: uint64(hw.DRAMBase), Len: 64},
		{IOVA: uint64(alloc.IOVA), Len: uint32(len(frame))},
	})
	r.p.HandleDowncall(0, uchan.Msg{Op: OpNetifRxBatch, Data: mixed})
	if r.p.RxInvalidRef != 1 || delivered != 3 {
		t.Fatalf("mixed batch: invalid=%d delivered=%d", r.p.RxInvalidRef, delivered)
	}
}

// TestPerQueueSlotWake: exhausting one queue's slot partition stalls only
// that queue, and returning its slots wakes only its netstack context.
func TestPerQueueSlotWake(t *testing.T) {
	r := newRigQ(t, 4)
	dev := (*proxyDev)(r.p)
	frame := bytes.Repeat([]byte{0x3C}, 100)
	for i := 0; i < r.p.SlotsPerQueue(); i++ {
		if err := dev.StartXmitQ(frame, 0); err != nil {
			t.Fatalf("xmit %d: %v", i, err)
		}
	}
	if err := dev.StartXmitQ(frame, 0); err == nil {
		t.Fatal("queue 0 accepted a frame with an empty partition")
	}
	// Sibling queues keep accepting.
	if err := dev.StartXmitQ(frame, 1); err != nil {
		t.Fatalf("queue 1 stalled by queue 0 exhaustion: %v", err)
	}
	var wake0, wake1 int
	r.p.Ifc.Queue(0).OnWake = func() { wake0++ }
	r.p.Ifc.Queue(1).OnWake = func() { wake1++ }
	// Return queue 0's slots; the wake fires at the per-queue threshold
	// and touches only queue 0.
	for i := 0; i < r.p.WakeThreshold(); i++ {
		r.p.HandleDowncall(0, uchan.Msg{Op: OpXmitDone, Args: [6]uint64{uint64(i)}})
	}
	if wake0 != 1 || wake1 != 0 {
		t.Fatalf("wakes: q0=%d q1=%d, want 1/0", wake0, wake1)
	}
}

func TestNetifRxValidation(t *testing.T) {
	r := newRig(t)
	var delivered int
	if _, err := r.k.Net.UDPBind(80, func([]byte, netstack.IP, uint16) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	// Valid reference: a frame staged in the driver's own pool.
	frame := netstack.AppendUDPFrame(nil, netstack.MAC{9}, netstack.MAC(mac),
		netstack.IP{1}, netstack.IP{2}, 1, 80, []byte("ok"))
	alloc := r.df.Allocs()[0]
	r.m.Mem.MustWrite(alloc.Phys, frame)
	r.p.HandleDowncall(0, uchan.Msg{Op: OpNetifRx, Args: [6]uint64{uint64(alloc.IOVA), uint64(len(frame))}})
	if delivered != 1 {
		t.Fatal("valid frame not delivered")
	}
	// Reference outside the driver's memory: rejected.
	r.p.HandleDowncall(0, uchan.Msg{Op: OpNetifRx, Args: [6]uint64{uint64(hw.DRAMBase), 64}})
	if r.p.RxInvalidRef != 1 {
		t.Fatal("foreign reference accepted")
	}
	// Absurd lengths: rejected.
	r.p.HandleDowncall(0, uchan.Msg{Op: OpNetifRx, Args: [6]uint64{uint64(alloc.IOVA), 1 << 20}})
	r.p.HandleDowncall(0, uchan.Msg{Op: OpNetifRx, Args: [6]uint64{uint64(alloc.IOVA), 0}})
	if r.p.RxBadLength != 2 {
		t.Fatalf("bad lengths = %d", r.p.RxBadLength)
	}
	// Inline (bounced) frames also deliver.
	r.p.HandleDowncall(0, uchan.Msg{Op: OpNetifRx, Data: frame, Args: [6]uint64{0, uint64(len(frame))}})
	if delivered != 2 {
		t.Fatal("inline frame not delivered")
	}
	// Unknown downcalls are counted, not trusted.
	r.p.HandleDowncall(0, uchan.Msg{Op: 9999})
	if r.p.UpcallErrors != 1 {
		t.Fatal("unknown op not counted")
	}
}

// TestGuardCopyRxAllocatesNothing pins the fused RX guard copy: a received
// frame is copied into a recycled kernel buffer.
func TestGuardCopyRxAllocatesNothing(t *testing.T) {
	r := newRig(t)
	var delivered int
	if _, err := r.k.Net.UDPBind(80, func([]byte, netstack.IP, uint16) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	frame := netstack.AppendUDPFrame(nil, netstack.MAC{9}, netstack.MAC(mac),
		netstack.IP{1}, netstack.IP{2}, 1, 80, []byte("ok"))
	alloc := r.df.Allocs()[0]
	r.m.Mem.MustWrite(alloc.Phys, frame)
	msg := uchan.Msg{Op: OpNetifRx, Args: [6]uint64{uint64(alloc.IOVA), uint64(len(frame))}}
	allocs := testing.AllocsPerRun(100, func() { r.p.HandleDowncall(0, msg) })
	if allocs != 0 {
		t.Fatalf("an RX guard copy allocates %.0f times, want 0", allocs)
	}
	if delivered != 101 || r.p.GuardCopiedBytes != 101*uint64(len(frame)) {
		t.Fatalf("delivered %d, guard-copied %d bytes", delivered, r.p.GuardCopiedBytes)
	}
}

// TestNestedRxKeepsOuterPayload delivers a second frame from inside the
// first one's socket callback: the payload the first callback holds must
// not change.
func TestNestedRxKeepsOuterPayload(t *testing.T) {
	r := newRig(t)
	alloc := r.df.Allocs()[0]
	stage := func(off int, body string) uchan.Msg {
		frame := netstack.AppendUDPFrame(nil, netstack.MAC{9}, netstack.MAC(mac),
			netstack.IP{1}, netstack.IP{2}, 1, 80, []byte(body))
		r.m.Mem.MustWrite(alloc.Phys+mem.Addr(off), frame)
		return uchan.Msg{Op: OpNetifRx, Args: [6]uint64{uint64(alloc.IOVA) + uint64(off), uint64(len(frame))}}
	}
	outer, inner := stage(0, "outer"), stage(TxSlotSize, "INNER")
	var got []string
	depth := 0
	if _, err := r.k.Net.UDPBind(80, func(p []byte, _ netstack.IP, _ uint16) {
		depth++
		if depth == 1 {
			r.p.HandleDowncall(0, inner)
		}
		got = append(got, string(p))
		depth--
	}); err != nil {
		t.Fatal(err)
	}
	r.p.HandleDowncall(0, outer) // warm a recycled buffer
	got = nil
	r.p.HandleDowncall(0, outer)
	if len(got) != 2 || got[0] != "INNER" || got[1] != "outer" {
		t.Fatalf("payloads %q, want the inner then the unchanged outer", got)
	}
}

func TestCarrierMirrorDowncalls(t *testing.T) {
	r := newRig(t)
	r.p.HandleDowncall(0, uchan.Msg{Op: OpCarrierOn})
	if !r.p.Ifc.Carrier() || r.p.MirrorUpdates != 1 {
		t.Fatal("carrier-on not mirrored")
	}
	r.p.HandleDowncall(0, uchan.Msg{Op: OpCarrierOff})
	if r.p.Ifc.Carrier() || r.p.MirrorUpdates != 2 {
		t.Fatal("carrier-off not mirrored")
	}
	_ = sim.Second
}

func TestHungDriverXmitBackpressure(t *testing.T) {
	r := newRig(t)
	r.c.Hung = true
	dev := (*proxyDev)(r.p)
	var failed bool
	for i := 0; i < 2*uchan.RingSlots; i++ {
		if err := dev.StartXmit([]byte{1}); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("hung driver never backpressured xmit")
	}
}

// TestInlineRxBoundedLikeReferences: a bounced (inline) frame gets the
// reference path's length bound. One byte past maxFrame is counted and not
// delivered; maxFrame itself is delivered.
func TestInlineRxBoundedLikeReferences(t *testing.T) {
	r := newRig(t)
	var got []int
	if _, err := r.k.Net.UDPBind(80, func(p []byte, _ netstack.IP, _ uint16) { got = append(got, len(p)) }); err != nil {
		t.Fatal(err)
	}
	inline := func(n int) {
		frame := netstack.AppendUDPFrame(nil, netstack.MAC{9}, netstack.MAC(mac),
			netstack.IP{1}, netstack.IP{2}, 1, 80, make([]byte, n-netstack.EthHeaderLen-28))
		if len(frame) != n {
			t.Fatalf("built a %d-byte frame, want %d", len(frame), n)
		}
		r.p.HandleDowncall(0, uchan.Msg{Op: OpNetifRx, Data: frame, Args: [6]uint64{0, uint64(n)}})
	}
	inline(maxFrame + 1)
	if r.p.RxBadLength != 1 || len(got) != 0 {
		t.Fatalf("oversized inline frame: %d bad lengths, payloads %v delivered", r.p.RxBadLength, got)
	}
	inline(maxFrame)
	if r.p.RxBadLength != 1 || len(got) != 1 {
		t.Fatalf("maxFrame inline frame: %d bad lengths, payloads %v delivered", r.p.RxBadLength, got)
	}
}

// TestRxQueueFenceDropsParkedQueue runs the net RX queue fence: while queue
// 1 is parked, the batch it delivers is dropped and counted by the proxy
// (before the netstack's own parked-queue drop could see it) and queue 0's
// batch lands; once queue 1 is re-armed, its batches land again.
func TestRxQueueFenceDropsParkedQueue(t *testing.T) {
	r := newRigQ(t, 2)
	delivered := 0
	if _, err := r.k.Net.UDPBind(80, func([]byte, netstack.IP, uint16) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	frame := netstack.AppendUDPFrame(nil, netstack.MAC{9}, netstack.MAC(mac),
		netstack.IP{1}, netstack.IP{2}, 1, 80, []byte("ok"))
	alloc := r.df.Allocs()[0]
	r.m.Mem.MustWrite(alloc.Phys, frame)
	batch := AppendRxBatch(nil, []RxRef{{IOVA: uint64(alloc.IOVA), Len: uint32(len(frame))}})
	deliver := func() {
		for q := 0; q < 2; q++ {
			r.p.HandleDowncall(q, uchan.Msg{Op: OpNetifRxBatch, Data: batch})
		}
	}
	r.p.ParkQueue(1)
	r.p.Ifc.BeginQueueRecovery(1)
	deliver()
	if delivered != 1 || r.p.RxStaleQueueEpoch != 1 || r.p.Ifc.Queue(1).ParkedRxDrops != 0 {
		t.Fatalf("parked: delivered %d, proxy drops %d, netstack drops %d; want 1, 1, 0",
			delivered, r.p.RxStaleQueueEpoch, r.p.Ifc.Queue(1).ParkedRxDrops)
	}
	r.p.RearmQueue(1)
	if _, err := r.p.Ifc.CompleteQueueRecovery(1); err != nil {
		t.Fatal(err)
	}
	deliver()
	if delivered != 3 || r.p.RxStaleQueueEpoch != 1 || r.p.QueueEpochMirror(1) != r.p.Ifc.QueueEpoch(1) {
		t.Fatalf("re-armed: delivered %d, proxy drops %d, mirror %d of epoch %d",
			delivered, r.p.RxStaleQueueEpoch, r.p.QueueEpochMirror(1), r.p.Ifc.QueueEpoch(1))
	}
}
