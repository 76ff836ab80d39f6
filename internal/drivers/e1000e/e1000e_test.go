package e1000e

import (
	"bytes"
	"testing"

	"sud/internal/devices/e1000"
	"sud/internal/drivers/api"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/pci"
	"sud/internal/sim"
)

var (
	dutMAC  = [6]byte{0x00, 0x1B, 0x21, 0x11, 0x22, 0x33}
	peerMAC = netstack.MAC{0x00, 0x1B, 0x21, 0x44, 0x55, 0x66}
	dutIP   = netstack.IP{10, 0, 0, 1}
	peerIP  = netstack.IP{10, 0, 0, 2}
)

// echoPeer is a wire-level peer that echoes UDP datagrams and records
// everything it sees.
type echoPeer struct {
	link  *ethlink.Link
	loop  *sim.Loop
	seen  [][]byte
	echos int
}

func (p *echoPeer) LinkDeliver(frame []byte) {
	p.seen = append(p.seen, bytes.Clone(frame))
	eh, ipPkt, err := netstack.ParseEth(frame)
	if err != nil || eh.EtherType != netstack.EtherTypeIPv4 {
		return
	}
	ih, l4, err := netstack.ParseIPv4(ipPkt)
	if err != nil || ih.Proto != netstack.ProtoUDP {
		return
	}
	uh, payload, err := netstack.ParseUDP(ih.Src, ih.Dst, l4, true)
	if err != nil || uh.DstPort != 7 {
		return
	}
	// Echo back after a small turnaround.
	reply := netstack.AppendUDPFrame(nil, peerMAC, netstack.MAC(eh.Src), ih.Dst, ih.Src, 7, uh.SrcPort, payload)
	p.loop.After(5*sim.Microsecond, func() {
		p.echos++
		_ = p.link.Send(1, reply)
	})
}

// world is a booted machine with the e1000e bound in-kernel.
type world struct {
	m    *hw.Machine
	k    *kernel.Kernel
	nic  *e1000.NIC
	peer *echoPeer
	ifc  *netstack.Iface
	inst api.Instance
	drv  *nic
}

func boot(t *testing.T) *world {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	dev := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.DefaultParams())
	m.AttachDevice(dev)
	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &echoPeer{link: link, loop: m.Loop}
	link.Connect(dev, peer)
	dev.AttachLink(link, 0)

	inst, err := k.BindInKernel(New(), dev)
	if err != nil {
		t.Fatal(err)
	}
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(10 * sim.Microsecond)
	return &world{m: m, k: k, nic: dev, peer: peer, ifc: ifc, inst: inst, drv: inst.(*nic)}
}

// bootQ boots the world with a multi-queue device and driver.
func bootQ(t *testing.T, queues int) *world {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	dev := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.MultiQueueParams(queues))
	m.AttachDevice(dev)
	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &echoPeer{link: link, loop: m.Loop}
	link.Connect(dev, peer)
	dev.AttachLink(link, 0)

	inst, err := k.BindInKernel(NewQ(queues), dev)
	if err != nil {
		t.Fatal(err)
	}
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(10 * sim.Microsecond)
	return &world{m: m, k: k, nic: dev, peer: peer, ifc: ifc, inst: inst, drv: inst.(*nic)}
}

// TestMultiRingRxSteering drives distinct flows at a 4-ring device and
// checks the whole receive-steering path: the driver's RETA programming
// spreads the flows over the RX rings, each ring's frames reach the stack
// tagged with their queue, and nothing is lost.
func TestMultiRingRxSteering(t *testing.T) {
	w := bootQ(t, 4)
	if w.drv.rxQueues != 4 || len(w.drv.rx) != 4 {
		t.Fatalf("driver armed %d RX rings, want 4", w.drv.rxQueues)
	}
	var got uint64
	if _, err := w.k.Net.UDPBind(9000, func([]byte, netstack.IP, uint16) { got++ }); err != nil {
		t.Fatal(err)
	}
	// 16 flows, 5 datagrams each: consecutive source ports walk the
	// redirection table, so every ring must see traffic.
	const flows, per = 16, 5
	for s := 0; s < flows; s++ {
		f := netstack.AppendUDPFrame(nil, peerMAC, netstack.MAC(dutMAC), peerIP, dutIP,
			uint16(41000+s), 9000, make([]byte, 64))
		for i := 0; i < per; i++ {
			w.m.Loop.After(sim.Duration(i)*100*sim.Microsecond, func() { _ = w.peerLink().Send(1, f) })
		}
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)
	if got != flows*per {
		t.Fatalf("delivered %d datagrams, want %d", got, flows*per)
	}
	if w.nic.RxPackets != flows*per {
		t.Fatalf("device received %d", w.nic.RxPackets)
	}
	for q := 0; q < 4; q++ {
		if w.ifc.Queue(q).RxFrames == 0 {
			t.Fatalf("RX ring %d saw no frames: steering broken", q)
		}
	}
}

// TestRxQueueCountClampedToDevice: a driver configured for more RX queues
// than the device exposes degrades instead of arming dead rings.
func TestRxQueueCountClampedToDevice(t *testing.T) {
	w := boot(t) // single-queue device...
	if w.drv.rxQueues != 1 || w.drv.queues != 1 {
		t.Fatalf("single-queue boot got tx=%d rx=%d", w.drv.queues, w.drv.rxQueues)
	}
	// ...and a multi-queue request against it clamps at probe.
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	dev := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.DefaultParams())
	m.AttachDevice(dev)
	link := ethlink.NewGigabit(m.Loop, 300)
	link.Connect(dev, &echoPeer{link: link, loop: m.Loop})
	dev.AttachLink(link, 0)
	inst, err := k.BindInKernel(NewQ(4), dev)
	if err != nil {
		t.Fatal(err)
	}
	drv := inst.(*nic)
	if drv.queues != 1 || drv.rxQueues != 1 {
		t.Fatalf("clamp failed: tx=%d rx=%d, want 1/1", drv.queues, drv.rxQueues)
	}
}

func TestProbeReadsMAC(t *testing.T) {
	w := boot(t)
	if w.drv.MAC() != dutMAC {
		t.Fatalf("driver MAC %x, want %x", w.drv.MAC(), dutMAC)
	}
	if w.ifc.MAC != netstack.MAC(dutMAC) {
		t.Fatal("netdev registered with wrong MAC")
	}
}

func TestCarrierDetected(t *testing.T) {
	w := boot(t)
	w.m.Loop.RunFor(3 * sim.Second)
	if !w.ifc.Carrier() {
		t.Fatal("watchdog never raised carrier")
	}
	// Pull the cable; the watchdog notices within its period.
	w.nic.LinkDeliver(nil) // no-op warmup
	w.peerLinkDown()
	w.m.Loop.RunFor(3 * sim.Second)
	if w.ifc.Carrier() {
		t.Fatal("carrier stayed up after cable pull")
	}
}

func (w *world) peerLinkDown() { w.peerLink().SetCarrier(false) }
func (w *world) peerLink() *ethlink.Link {
	return w.peer.link
}

func TestUDPTransmitEndToEnd(t *testing.T) {
	w := boot(t)
	payload := bytes.Repeat([]byte{0xEE}, 64)
	if err := w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 5000, 9, payload); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(sim.Millisecond)
	if len(w.peer.seen) != 1 {
		t.Fatalf("peer saw %d frames", len(w.peer.seen))
	}
	// The wire frame is a valid UDP datagram with our payload.
	_, ipPkt, _ := netstack.ParseEth(w.peer.seen[0])
	ih, l4, err := netstack.ParseIPv4(ipPkt)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := netstack.ParseUDP(ih.Src, ih.Dst, l4, true)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("wire payload: %v %q", err, got)
	}
	if w.nic.TxPackets != 1 {
		t.Fatalf("device TxPackets = %d", w.nic.TxPackets)
	}
}

func TestUDPEchoRoundTrip(t *testing.T) {
	w := boot(t)
	var replies int
	if _, err := w.k.Net.UDPBind(5000, func(p []byte, src netstack.IP, sport uint16) {
		if src == peerIP && sport == 7 {
			replies++
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 5000, 7, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		w.m.Loop.RunFor(sim.Millisecond)
	}
	if replies != 5 {
		t.Fatalf("got %d echo replies, want 5", replies)
	}
	if w.drv.Interrupts == 0 {
		t.Fatal("driver took no interrupts")
	}
	if w.nic.RxPackets != 5 {
		t.Fatalf("device RxPackets = %d", w.nic.RxPackets)
	}
}

func TestTxRingBackpressureAndRecovery(t *testing.T) {
	w := boot(t)
	// Flood more packets than the ring holds without letting the engine
	// drain; expect ErrQueueStopped at some point, then recovery.
	payload := bytes.Repeat([]byte{1}, 64)
	var stopped bool
	sent := 0
	for i := 0; i < 2*RingSize; i++ {
		err := w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 1, 9, payload)
		if err != nil {
			stopped = true
			break
		}
		sent++
	}
	if !stopped {
		t.Fatal("ring never filled")
	}
	if sent < RingSize-2 {
		t.Fatalf("queue stopped after only %d sends", sent)
	}
	// Let the device drain and the irq path wake the queue.
	w.m.Loop.RunFor(10 * sim.Millisecond)
	if err := w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 1, 9, payload); err != nil {
		t.Fatal("send after drain failed:", err)
	}
	w.m.Loop.RunFor(10 * sim.Millisecond)
	if int(w.nic.TxPackets) != sent+1 {
		t.Fatalf("device transmitted %d, want %d", w.nic.TxPackets, sent+1)
	}
}

func TestIoctlMIIStatus(t *testing.T) {
	w := boot(t)
	out, err := w.ifc.Ioctl(api.IoctlGetMIIStatus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0]&e1000.StatusLU == 0 {
		t.Fatal("MII ioctl reports link down")
	}
}

func TestStopFreesAndQuiesces(t *testing.T) {
	w := boot(t)
	if err := w.ifc.Down(); err != nil {
		t.Fatal(err)
	}
	// Frames arriving now are ignored by the closed device.
	before := w.nic.RxPackets
	reply := netstack.AppendUDPFrame(nil, peerMAC, netstack.MAC(dutMAC), peerIP, dutIP, 7, 5000, []byte("x"))
	if err := w.peerLink().Send(1, reply); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(sim.Millisecond)
	if w.nic.RxPackets != before {
		t.Fatal("closed device received packets")
	}
	// Reopen works.
	if err := w.ifc.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	if err := w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 1, 9, []byte("y")); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(sim.Millisecond)
}

func TestRemoveUnbinds(t *testing.T) {
	w := boot(t)
	w.k.Unbind(w.nic)
	// After unbind the device's DMA faults (no domain).
	if err := w.nic.DMAWrite(hw.DRAMBase, []byte{1}); err == nil {
		t.Fatal("DMA after unbind succeeded")
	}
}

func TestInterruptModerationUnderLoad(t *testing.T) {
	w := boot(t)
	// Blast 200 small frames at the DUT; with ITR at 8000/s over the
	// ~1 ms of delivery, interrupts should be far fewer than frames.
	for i := 0; i < 200; i++ {
		f := netstack.AppendUDPFrame(nil, peerMAC, netstack.MAC(dutMAC), peerIP, dutIP, 7, 9999, []byte{byte(i)})
		w.m.Loop.After(sim.Duration(i)*4*sim.Microsecond, func() {
			_ = w.peerLink().Send(1, f)
		})
	}
	w.m.Loop.RunFor(20 * sim.Millisecond)
	if w.nic.RxPackets != 200 {
		t.Fatalf("device received %d", w.nic.RxPackets)
	}
	if w.drv.Interrupts >= 100 {
		t.Fatalf("ITR ineffective: %d interrupts for 200 frames", w.drv.Interrupts)
	}
	// All frames reached the stack despite moderation.
	if w.k.Net.RxFrames != 200 {
		t.Fatalf("stack saw %d frames", w.k.Net.RxFrames)
	}
}

func TestKernelCPUChargedForTraffic(t *testing.T) {
	w := boot(t)
	w.m.CPU.Reset(w.m.Now())
	for i := 0; i < 50; i++ {
		if err := w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 1, 9, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		w.m.Loop.RunFor(10 * sim.Microsecond)
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)
	if w.k.Acct.Busy() == 0 {
		t.Fatal("no CPU charged for 50 sends")
	}
	util := w.m.CPU.Utilization(w.m.Now())
	if util <= 0 || util >= 1 {
		t.Fatalf("utilization = %v out of range", util)
	}
}
