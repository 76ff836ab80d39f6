// Package netperf reproduces the paper's §5.1 evaluation: the four netperf
// benchmarks (TCP_STREAM, UDP_STREAM TX and RX, UDP_RR) run against the
// e1000e driver in both configurations of Figure 8 — trusted in-kernel and
// untrusted under SUD — measuring throughput and CPU utilisation in virtual
// time, with netperf-style confidence-interval stopping ("accurate to 5%
// with 99% confidence").
//
// The remote end of the link models the paper's 2.8 GHz Dell Optiplex at
// wire level: it terminates the benchmark protocols with realistic
// turnaround latencies but consumes no device-under-test CPU.
package netperf

import (
	"encoding/binary"

	"sud/internal/ethlink"
	"sud/internal/kernel/netstack"
	"sud/internal/sim"
)

// Benchmark endpoint addressing.
var (
	DUTMAC    = netstack.MAC{0x00, 0x1B, 0x21, 0x11, 0x22, 0x33}
	RemoteMAC = netstack.MAC{0x00, 0x1B, 0x21, 0x44, 0x55, 0x66}
	DUTIP     = netstack.IP{10, 0, 0, 1}
	RemoteIP  = netstack.IP{10, 0, 0, 2}
)

// Well-known benchmark ports.
const (
	PortRR     = 7    // UDP request/response echo
	PortSink   = 9    // UDP discard (DUT transmit test)
	PortFlood  = 9000 // UDP receive test
	PortStream = 5201 // TCP stream
)

// TCP sender parameters (the remote's side of TCP_STREAM).
const (
	MSS       = 1448
	SendWin   = 64 * 1024
	remotePrt = 40000
)

// RemoteHost is the wire-level peer.
type RemoteHost struct {
	loop *sim.Loop
	link *ethlink.Link
	side int

	// Turnaround is the remote's per-packet processing time (its NIC,
	// stack and application): calibrated so the in-kernel UDP_RR rate
	// lands near the paper's 9590 transactions/s.
	Turnaround sim.Duration

	// frame is the buffer every generator builds its next frame in; the
	// link copies what it sends, so one buffer serves them all.
	frame []byte

	// --- UDP_RR client state ---
	rrActive bool
	rrReq    []byte // the request payload; its first 8 bytes carry RRCount
	rrFn     func() // sendRRRequest, bound once
	RRCount  uint64 // completed transactions

	// --- UDP sink (DUT transmit test) ---
	SinkPkts  uint64
	SinkBytes uint64

	// --- UDP flood generator (DUT receive test) ---
	floodEvery sim.Duration
	floodStop  bool
	FloodSent  uint64

	// --- multi-flow flood generators (RX scale scenario) ---
	flowsStop bool
	FlowsSent uint64

	// --- TCP sender state ---
	tcpActive bool
	// DropNextSegment simulates wire loss: the next data segment is
	// consumed but never delivered (tests of the go-back-N recovery).
	DropNextSegment bool
	tcpSeq          uint32 // next unsent byte
	tcpBase         uint32 // oldest unacked byte
	tcpPayload      []byte // a segment's payload; its first 4 bytes carry the sequence number
	lastAck         uint32
	dupAcks         int
	TCPAcked        uint64
	Retrans         uint64
}

// NewRemote attaches a remote host to side `side` of link.
func NewRemote(loop *sim.Loop, link *ethlink.Link, side int) *RemoteHost {
	r := &RemoteHost{loop: loop, link: link, side: side, Turnaround: 99 * sim.Microsecond}
	r.rrFn = r.sendRRRequest
	return r
}

// sendUDP builds a datagram to the DUT in the host's frame buffer and puts
// it on the wire.
func (r *RemoteHost) sendUDP(sport, dport uint16, payload []byte) error {
	r.frame = netstack.AppendUDPFrame(r.frame[:0], RemoteMAC, DUTMAC, RemoteIP, DUTIP, sport, dport, payload)
	return r.link.Send(r.side, r.frame)
}

// sendTCP is sendUDP for a TCP segment.
func (r *RemoteHost) sendTCP(h netstack.TCPHeader, payload []byte) error {
	r.frame = netstack.AppendTCPFrame(r.frame[:0], RemoteMAC, DUTMAC, RemoteIP, DUTIP, h, payload)
	return r.link.Send(r.side, r.frame)
}

// LinkDeliver implements ethlink.Endpoint.
func (r *RemoteHost) LinkDeliver(frame []byte) {
	eh, ipPkt, err := netstack.ParseEth(frame)
	if err != nil || eh.EtherType != netstack.EtherTypeIPv4 {
		return
	}
	ih, l4, err := netstack.ParseIPv4(ipPkt)
	if err != nil {
		return
	}
	switch ih.Proto {
	case netstack.ProtoUDP:
		uh, payload, err := netstack.ParseUDP(ih.Src, ih.Dst, l4, true)
		if err != nil {
			return
		}
		r.udp(ih, uh, payload)
	case netstack.ProtoTCP:
		th, _, err := netstack.ParseTCP(ih.Src, ih.Dst, l4, true)
		if err != nil {
			return
		}
		r.tcpAck(th)
	}
}

func (r *RemoteHost) udp(ih netstack.IPv4Header, uh netstack.UDPHeader, payload []byte) {
	switch uh.DstPort {
	case remotePrt:
		// Reply to our RR request: transaction complete; fire the next
		// request after client processing time.
		if r.rrActive {
			r.RRCount++
			r.loop.After(r.Turnaround, r.rrFn)
		}
	case PortSink:
		r.SinkPkts++
		r.SinkBytes += uint64(len(payload))
	case PortRR:
		// Generic echo service (the DUT acting as client, e.g. the
		// quickstart example).
		reply := netstack.AppendUDPFrame(nil, RemoteMAC, DUTMAC, ih.Dst, ih.Src, PortRR, uh.SrcPort, payload)
		r.loop.After(r.Turnaround, func() { _ = r.link.Send(r.side, reply) })
	}
}

// --- UDP_RR -------------------------------------------------------------------

// StartRR begins the request/response loop with the given payload size
// (64 bytes in Figure 8).
func (r *RemoteHost) StartRR(payload int) {
	r.rrActive = true
	r.rrReq = make([]byte, payload)
	r.sendRRRequest()
}

// StopRR halts the loop.
func (r *RemoteHost) StopRR() { r.rrActive = false }

func (r *RemoteHost) sendRRRequest() {
	if !r.rrActive {
		return
	}
	binary.BigEndian.PutUint64(r.rrReq, r.RRCount)
	_ = r.sendUDP(remotePrt, PortRR, r.rrReq)
}

// --- UDP flood (DUT receive test) ----------------------------------------------

// StartFlood sends `payload`-byte datagrams to the DUT's flood port at the
// given offered rate (packets/s). The paper's sender is the faster machine;
// the DUT's receive path is the bottleneck under test.
func (r *RemoteHost) StartFlood(payload int, pps int) {
	r.floodStop = false
	r.floodEvery = sim.Duration(int64(sim.Second) / int64(pps))
	var tick func()
	buf := make([]byte, payload)
	tick = func() {
		if r.floodStop {
			return
		}
		binary.BigEndian.PutUint64(buf, r.FloodSent)
		if r.sendUDP(remotePrt, PortFlood, buf) == nil {
			r.FloodSent++
		}
		r.loop.After(r.floodEvery, tick)
	}
	tick()
}

// StopFlood halts the generator.
func (r *RemoteHost) StopFlood() { r.floodStop = true }

// StartFloodFlows starts `flows` independent datagram generators, each a
// distinct flow (source ports baseSport..baseSport+flows-1, so RSS steering
// spreads them over the DUT's RX rings) sending `payload`-byte datagrams to
// dport at ppsPerFlow each. The aggregate offered load is meant to exceed
// the DUT's receive capacity; the wire FIFO sheds the excess.
func (r *RemoteHost) StartFloodFlows(payload, ppsPerFlow, flows int, baseSport, dport uint16) {
	r.flowsStop = false
	every := sim.Duration(int64(sim.Second) / int64(ppsPerFlow))
	for i := 0; i < flows; i++ {
		sport := baseSport + uint16(i)
		buf := make([]byte, payload)
		var tick func()
		tick = func() {
			if r.flowsStop {
				return
			}
			binary.BigEndian.PutUint64(buf, r.FlowsSent)
			if r.sendUDP(sport, dport, buf) == nil {
				r.FlowsSent++
			}
			r.loop.After(every, tick)
		}
		tick()
	}
}

// StopFloodFlows halts every flow generator.
func (r *RemoteHost) StopFloodFlows() { r.flowsStop = true }

// --- TCP sender (TCP_STREAM: remote → DUT) --------------------------------------

// StartTCP opens the stream and fills the send window; ACKs from the DUT
// clock further segments (go-back-N on triple duplicate ACK).
func (r *RemoteHost) StartTCP() {
	r.tcpActive = true
	r.tcpSeq = 1 // byte 0 is the SYN
	r.tcpBase = 1
	r.tcpPayload = make([]byte, MSS)
	_ = r.sendTCP(netstack.TCPHeader{
		SrcPort: remotePrt, DstPort: PortStream, Seq: 0, Flags: netstack.TCPSyn, Window: 0xFFFF,
	}, nil)
	// Data flows once the SYN is acked (tcpAck pumps).
}

// StopTCP halts the stream.
func (r *RemoteHost) StopTCP() { r.tcpActive = false }

func (r *RemoteHost) tcpAck(th netstack.TCPHeader) {
	if !r.tcpActive || th.Flags&netstack.TCPAck == 0 {
		return
	}
	if th.Ack == r.lastAck {
		r.dupAcks++
		if r.dupAcks >= 3 {
			// Go-back-N: rewind to the ack point.
			r.dupAcks = 0
			r.Retrans++
			r.tcpSeq = th.Ack
		}
	} else if th.Ack > r.lastAck {
		r.TCPAcked += uint64(th.Ack - r.lastAck)
		r.lastAck = th.Ack
		r.tcpBase = th.Ack
		r.dupAcks = 0
	}
	r.pump()
}

// pump sends segments while the window allows.
func (r *RemoteHost) pump() {
	for r.tcpActive && r.tcpSeq-r.tcpBase+MSS <= SendWin {
		if r.DropNextSegment {
			// The wire ate this one; the receiver's duplicate ACKs
			// will bring it back via go-back-N.
			r.DropNextSegment = false
			r.tcpSeq += MSS
			continue
		}
		binary.BigEndian.PutUint32(r.tcpPayload, r.tcpSeq)
		if err := r.sendTCP(netstack.TCPHeader{
			SrcPort: remotePrt, DstPort: PortStream, Seq: r.tcpSeq,
			Flags: netstack.TCPAck, Window: 0xFFFF,
		}, r.tcpPayload); err != nil {
			// Sender FIFO full: back off one segment; ACK clocking
			// retries.
			return
		}
		r.tcpSeq += MSS
	}
}
