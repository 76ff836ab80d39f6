package netstack

import (
	"bytes"
	"testing"
	"testing/quick"

	"sud/internal/drivers/api"
	"sud/internal/sim"
)

var (
	macA = MAC{2, 0, 0, 0, 0, 1}
	macB = MAC{2, 0, 0, 0, 0, 2}
	ipA  = IP{10, 0, 0, 1}
	ipB  = IP{10, 0, 0, 2}
)

// loopDev is a fake netdev that records transmitted frames.
type loopDev struct {
	opened, stopped bool
	tx              [][]byte
	failXmit        bool
}

func (d *loopDev) Open() error { d.opened = true; return nil }
func (d *loopDev) Stop() error { d.stopped = true; return nil }
func (d *loopDev) StartXmit(f []byte) error {
	if d.failXmit {
		return ErrQueueStopped
	}
	d.tx = append(d.tx, bytes.Clone(f))
	return nil
}
func (d *loopDev) DoIoctl(cmd uint32, arg []byte) ([]byte, error) {
	return []byte{0x42}, nil
}

func newStack(t *testing.T) (*Stack, *Iface, *loopDev) {
	t.Helper()
	loop := sim.NewLoop()
	stats := sim.NewCPUStats(2)
	s := New(loop, stats.Account("kernel"))
	dev := &loopDev{}
	ifc, err := s.Register("eth0", macA, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(ipA); err != nil {
		t.Fatal(err)
	}
	return s, ifc, dev
}

func TestChecksumRFC1071(t *testing.T) {
	// Classic example: checksum of this sequence is 0xDDF2 complemented.
	b := []byte{0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7}
	if got := Checksum(b); got != ^uint16(0xDDF2) {
		t.Fatalf("checksum = %#x, want %#x", got, ^uint16(0xDDF2))
	}
}

func TestEthRoundTrip(t *testing.T) {
	h := EthHeader{Dst: macB, Src: macA, EtherType: EtherTypeIPv4}
	frame := h.Marshal(nil)
	frame = append(frame, 1, 2, 3)
	got, payload, err := ParseEth(frame)
	if err != nil || got != h || len(payload) != 3 {
		t.Fatalf("parse = %+v, %v", got, err)
	}
	if _, _, err := ParseEth(frame[:10]); err == nil {
		t.Fatal("short frame parsed")
	}
}

func TestIPv4RoundTripAndCorruption(t *testing.T) {
	h := IPv4Header{Proto: ProtoUDP, TTL: 64, Src: ipA, Dst: ipB}
	pkt := h.Marshal(nil, 4)
	pkt = append(pkt, 0xDE, 0xAD, 0xBE, 0xEF)
	got, payload, err := ParseIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != ipA || got.Dst != ipB || got.Proto != ProtoUDP || len(payload) != 4 {
		t.Fatalf("parsed %+v payload %d", got, len(payload))
	}
	pkt[8] ^= 0xFF // corrupt TTL
	if _, _, err := ParseIPv4(pkt); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestUDPFrameRoundTrip(t *testing.T) {
	payload := []byte("netperf request")
	frame := AppendUDPFrame(nil, macA, macB, ipA, ipB, 5001, 7, payload)
	_, ipPkt, err := ParseEth(frame)
	if err != nil {
		t.Fatal(err)
	}
	ih, l4, err := ParseIPv4(ipPkt)
	if err != nil {
		t.Fatal(err)
	}
	uh, got, err := ParseUDP(ih.Src, ih.Dst, l4, true)
	if err != nil {
		t.Fatal(err)
	}
	if uh.SrcPort != 5001 || uh.DstPort != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("uh=%+v payload=%q", uh, got)
	}
	// Flip a payload bit: checksum must catch it.
	frame[len(frame)-1] ^= 1
	_, ipPkt, _ = ParseEth(frame)
	ih, l4, _ = ParseIPv4(ipPkt)
	if _, _, err := ParseUDP(ih.Src, ih.Dst, l4, true); err == nil {
		t.Fatal("corrupted UDP accepted")
	}
}

func TestTCPFrameRoundTrip(t *testing.T) {
	h := TCPHeader{SrcPort: 33000, DstPort: 5201, Seq: 1000, Ack: 2000, Flags: TCPAck | TCPPsh, Window: 4096}
	payload := bytes.Repeat([]byte{7}, 100)
	frame := AppendTCPFrame(nil, macA, macB, ipA, ipB, h, payload)
	_, ipPkt, _ := ParseEth(frame)
	ih, l4, err := ParseIPv4(ipPkt)
	if err != nil {
		t.Fatal(err)
	}
	got, data, err := ParseTCP(ih.Src, ih.Dst, l4, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || !bytes.Equal(data, payload) {
		t.Fatalf("parsed %+v", got)
	}
}

func TestUDPSocketDelivery(t *testing.T) {
	s, ifc, _ := newStack(t)
	var got []byte
	var from IP
	if _, err := s.UDPBind(9000, func(p []byte, src IP, sport uint16) {
		got = append([]byte(nil), p...)
		from = src
	}); err != nil {
		t.Fatal(err)
	}
	frame := AppendUDPFrame(nil, macB, macA, ipB, ipA, 777, 9000, []byte("hi"))
	ifc.NetifRx(frame, 0)
	if string(got) != "hi" || from != ipB {
		t.Fatalf("got %q from %v", got, from)
	}
	if s.RxFrames != 1 || s.RxDrops != 0 {
		t.Fatalf("frames=%d drops=%d", s.RxFrames, s.RxDrops)
	}
}

func TestUDPUnboundPortDrops(t *testing.T) {
	s, ifc, _ := newStack(t)
	ifc.NetifRx(AppendUDPFrame(nil, macB, macA, ipB, ipA, 777, 9999, []byte("x")), 0)
	if s.RxDrops != 1 {
		t.Fatal("datagram to unbound port not dropped")
	}
}

func TestUDPBindConflict(t *testing.T) {
	s, _, _ := newStack(t)
	if _, err := s.UDPBind(53, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UDPBind(53, nil); err == nil {
		t.Fatal("double bind succeeded")
	}
	s.UDPClose(53)
	if _, err := s.UDPBind(53, nil); err != nil {
		t.Fatal("rebind after close failed:", err)
	}
}

func TestUDPSend(t *testing.T) {
	s, ifc, dev := newStack(t)
	if err := s.UDPSendTo(ifc, macB, ipB, 5001, 7, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if len(dev.tx) != 1 {
		t.Fatalf("driver got %d frames", len(dev.tx))
	}
	// The transmitted frame parses back.
	_, ipPkt, _ := ParseEth(dev.tx[0])
	ih, l4, err := ParseIPv4(ipPkt)
	if err != nil {
		t.Fatal(err)
	}
	if _, p, err := ParseUDP(ih.Src, ih.Dst, l4, true); err != nil || string(p) != "ping" {
		t.Fatalf("xmitted datagram bad: %v %q", err, p)
	}
	if s.Acct.Busy() == 0 {
		t.Fatal("send charged no CPU")
	}
}

func TestXmitBackpressure(t *testing.T) {
	s, ifc, dev := newStack(t)
	dev.failXmit = true
	if err := s.UDPSendTo(ifc, macB, ipB, 1, 2, []byte("x")); err == nil {
		t.Fatal("xmit to full ring succeeded")
	}
	// Queue is now stopped; even after the driver recovers, sends fail
	// until WakeQueue.
	dev.failXmit = false
	if err := s.UDPSendTo(ifc, macB, ipB, 1, 2, []byte("x")); err == nil {
		t.Fatal("send while queue stopped succeeded")
	}
	var woken bool
	ifc.OnWake = func() { woken = true }
	ifc.WakeQueue(0)
	if !woken {
		t.Fatal("OnWake not invoked")
	}
	if err := s.UDPSendTo(ifc, macB, ipB, 1, 2, []byte("x")); err != nil {
		t.Fatal("send after wake failed:", err)
	}
}

// mqDev is a fake multi-queue netdev: per-queue transmit logs and per-queue
// failure injection.
type mqDev struct {
	loopDev
	nq    int
	txq   map[int][][]byte
	failQ map[int]bool
}

func (d *mqDev) TxQueues() int { return d.nq }
func (d *mqDev) StartXmitQ(f []byte, q int) error {
	if d.failQ[q] {
		return ErrQueueStopped
	}
	if d.txq == nil {
		d.txq = map[int][][]byte{}
	}
	d.txq[q] = append(d.txq[q], bytes.Clone(f))
	return nil
}

// TestPerQueueTxStopIsolation is the regression test for the multi-queue
// netstack split: backpressure on queue 0 must not stop queue 1 transmits,
// and waking queue 0 must not disturb queue 1 — the old single stop/wake
// flag failed both.
func TestPerQueueTxStopIsolation(t *testing.T) {
	loop := sim.NewLoop()
	s := New(loop, sim.NewCPUStats(2).Account("kernel"))
	dev := &mqDev{nq: 2, failQ: map[int]bool{}}
	ifc, err := s.Register("eth0", macA, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(ipA); err != nil {
		t.Fatal(err)
	}
	if ifc.NumQueues() != 2 {
		t.Fatalf("queue contexts = %d, want 2", ifc.NumQueues())
	}
	// Pick source ports that hash to queues 0 and 1.
	var sport0, sport1 uint16
	for p := uint16(40000); p < 40100; p++ {
		if TxQueueForPorts(p, 7, 2) == 0 && sport0 == 0 {
			sport0 = p
		}
		if TxQueueForPorts(p, 7, 2) == 1 && sport1 == 0 {
			sport1 = p
		}
	}
	// Queue 0's ring fills: its flow backpressures and the queue stops.
	dev.failQ[0] = true
	if err := s.UDPSendTo(ifc, macB, ipB, sport0, 7, []byte("q0")); err == nil {
		t.Fatal("queue 0 xmit succeeded despite full ring")
	}
	if !ifc.Queue(0).txStopped {
		t.Fatal("queue 0 not stopped")
	}
	// Queue 1 keeps transmitting.
	if err := s.UDPSendTo(ifc, macB, ipB, sport1, 7, []byte("q1")); err != nil {
		t.Fatalf("queue 1 stalled by queue 0 backpressure: %v", err)
	}
	if len(dev.txq[1]) != 1 {
		t.Fatalf("queue 1 carried %d frames", len(dev.txq[1]))
	}
	// Queue 0 stays stopped until its own wake, even with the ring fixed.
	dev.failQ[0] = false
	if err := s.UDPSendTo(ifc, macB, ipB, sport0, 7, []byte("q0")); err == nil {
		t.Fatal("stopped queue accepted a frame before wake")
	}
	var wokeQ0, wokeIfc int
	ifc.Queue(0).OnWake = func() { wokeQ0++ }
	ifc.OnWake = func() { wokeIfc++ }
	ifc.WakeQueue(1) // waking a sibling must not release queue 0
	if err := s.UDPSendTo(ifc, macB, ipB, sport0, 7, []byte("q0")); err == nil {
		t.Fatal("sibling wake released queue 0")
	}
	ifc.WakeQueue(0)
	if wokeQ0 != 1 || wokeIfc != 1 {
		t.Fatalf("wake hooks: q0=%d ifc=%d (sibling wake should hit the iface hook)", wokeQ0, wokeIfc)
	}
	if err := s.UDPSendTo(ifc, macB, ipB, sport0, 7, []byte("q0")); err != nil {
		t.Fatalf("queue 0 send after wake: %v", err)
	}
	if ifc.Queue(0).TxFrames != 1 || ifc.Queue(1).TxFrames != 1 {
		t.Fatalf("per-queue tx counters: q0=%d q1=%d", ifc.Queue(0).TxFrames, ifc.Queue(1).TxFrames)
	}
	// Per-queue RX contexts count tagged deliveries.
	ifc.NetifRx(AppendUDPFrame(nil, macB, macA, ipB, ipA, 1, 9999, []byte("x")), 1)
	if ifc.Queue(1).RxFrames != 1 {
		t.Fatal("tagged RX not counted on its queue context")
	}
}

func TestFirewallDropsAndTOCTOUSurface(t *testing.T) {
	s, ifc, _ := newStack(t)
	var inspected int
	s.Firewall = func(frame []byte) bool {
		inspected++
		// Block UDP port 6666.
		_, ipPkt, _ := ParseEth(frame)
		ih, l4, err := ParseIPv4(ipPkt)
		if err != nil {
			return false
		}
		if ih.Proto == ProtoUDP {
			uh, _, err := ParseUDP(ih.Src, ih.Dst, l4, false)
			if err != nil || uh.DstPort == 6666 {
				return false
			}
		}
		return true
	}
	var delivered int
	if _, err := s.UDPBind(6666, func([]byte, IP, uint16) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UDPBind(7777, func([]byte, IP, uint16) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	ifc.NetifRx(AppendUDPFrame(nil, macB, macA, ipB, ipA, 1, 6666, []byte("evil")), 0)
	ifc.NetifRx(AppendUDPFrame(nil, macB, macA, ipB, ipA, 1, 7777, []byte("ok")), 0)
	if delivered != 1 || s.FirewallDrops != 1 || inspected != 2 {
		t.Fatalf("delivered=%d drops=%d inspected=%d", delivered, s.FirewallDrops, inspected)
	}
}

func TestTCPReceiverStream(t *testing.T) {
	s, ifc, dev := newStack(t)
	var total int
	if _, err := s.TCPListen(5201, func(n int) { total += n }); err != nil {
		t.Fatal(err)
	}
	// SYN.
	syn := AppendTCPFrame(nil, macB, macA, ipB, ipA, TCPHeader{SrcPort: 40000, DstPort: 5201, Seq: 99, Flags: TCPSyn}, nil)
	ifc.NetifRx(syn, 0)
	if len(dev.tx) != 1 {
		t.Fatal("no SYN ack")
	}
	// Two in-order segments: delayed ACK fires on the second.
	seq := uint32(100)
	seg1 := AppendTCPFrame(nil, macB, macA, ipB, ipA, TCPHeader{SrcPort: 40000, DstPort: 5201, Seq: seq, Flags: TCPAck}, bytes.Repeat([]byte{1}, 1000))
	ifc.NetifRx(seg1, 0)
	if len(dev.tx) != 1 {
		t.Fatal("premature ACK before delayed-ack threshold")
	}
	seg2 := AppendTCPFrame(nil, macB, macA, ipB, ipA, TCPHeader{SrcPort: 40000, DstPort: 5201, Seq: seq + 1000, Flags: TCPAck}, bytes.Repeat([]byte{2}, 1000))
	ifc.NetifRx(seg2, 0)
	if len(dev.tx) != 2 {
		t.Fatalf("expected delayed ACK after 2 segments, tx=%d", len(dev.tx))
	}
	if total != 2000 {
		t.Fatalf("app saw %d bytes", total)
	}
	// The ACK carries the cumulative sequence.
	_, ipPkt, _ := ParseEth(dev.tx[1])
	ih, l4, _ := ParseIPv4(ipPkt)
	th, _, err := ParseTCP(ih.Src, ih.Dst, l4, true)
	if err != nil || th.Ack != seq+2000 {
		t.Fatalf("ack=%d err=%v", th.Ack, err)
	}
}

func TestTCPOutOfOrderReAcks(t *testing.T) {
	s, ifc, dev := newStack(t)
	r, err := s.TCPListen(5201, nil)
	if err != nil {
		t.Fatal(err)
	}
	ifc.NetifRx(AppendTCPFrame(nil, macB, macA, ipB, ipA, TCPHeader{SrcPort: 1, DstPort: 5201, Seq: 0, Flags: TCPSyn}, nil), 0)
	// Skip ahead: out of order.
	ifc.NetifRx(AppendTCPFrame(nil, macB, macA, ipB, ipA, TCPHeader{SrcPort: 1, DstPort: 5201, Seq: 5000, Flags: TCPAck}, []byte{1}), 0)
	if r.OutOfOrder != 1 {
		t.Fatal("out-of-order segment not detected")
	}
	// Dup-ack was sent (SYN-ACK + dup-ack = 2).
	if len(dev.tx) != 2 {
		t.Fatalf("tx=%d", len(dev.tx))
	}
}

func TestIfaceLifecycle(t *testing.T) {
	s, ifc, dev := newStack(t)
	if !ifc.IsUp() || !dev.opened {
		t.Fatal("Up did not open device")
	}
	ifc.CarrierOn()
	if !ifc.Carrier() {
		t.Fatal("carrier")
	}
	if err := ifc.Down(); err != nil || !dev.stopped {
		t.Fatal("Down did not stop device")
	}
	if err := s.UDPSendTo(ifc, macB, ipB, 1, 2, []byte("x")); err == nil {
		t.Fatal("send on downed interface succeeded")
	}
	if _, err := s.Register("eth0", macA, dev); err == nil {
		t.Fatal("duplicate interface name accepted")
	}
	if _, err := s.Iface("eth0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Iface("wlan9"); err == nil {
		t.Fatal("missing iface lookup succeeded")
	}
	out, err := ifc.Ioctl(api.IoctlGetMIIStatus, nil)
	if err != nil || out[0] != 0x42 {
		t.Fatal("ioctl passthrough failed")
	}
}

// Property: UDP frames round-trip for arbitrary payloads and ports.
func TestUDPRoundTripProperty(t *testing.T) {
	f := func(sport, dport uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		frame := AppendUDPFrame(nil, macA, macB, ipA, ipB, sport, dport, payload)
		_, ipPkt, err := ParseEth(frame)
		if err != nil {
			return false
		}
		ih, l4, err := ParseIPv4(ipPkt)
		if err != nil {
			return false
		}
		uh, got, err := ParseUDP(ih.Src, ih.Dst, l4, true)
		return err == nil && uh.SrcPort == sport && uh.DstPort == dport && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the Internet checksum of data with its checksum appended is 0.
func TestChecksumSelfVerifyProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		ck := Checksum(data)
		whole := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		return Checksum(whole) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
