package netstack

import "fmt"

// UDPSock is a bound UDP socket. Receive is callback-based: OnRecv runs in
// simulated application context (its CPU cost is charged by the harness that
// installs it).
type UDPSock struct {
	Port uint16
	// OnRecv receives each datagram. payload is valid only until OnRecv
	// returns: it points into the received frame, which is the proxy's
	// recycled guard-copy buffer, a flipped page or a trusted driver's
	// buffer. A handler that keeps the bytes copies them.
	OnRecv func(payload []byte, srcIP IP, srcPort uint16)

	RxDatagrams uint64
	RxBytes     uint64
}

// UDPBind binds a socket to port.
func (s *Stack) UDPBind(port uint16, onRecv func(payload []byte, srcIP IP, srcPort uint16)) (*UDPSock, error) {
	if _, dup := s.udp[port]; dup {
		return nil, fmt.Errorf("netstack: UDP port %d in use", port)
	}
	sock := &UDPSock{Port: port, OnRecv: onRecv}
	s.udp[port] = sock
	return sock, nil
}

// UDPClose releases the port.
func (s *Stack) UDPClose(port uint16) { delete(s.udp, port) }

func (u *UDPSock) deliver(payload []byte, src IP, sport uint16) {
	u.RxDatagrams++
	u.RxBytes += uint64(len(payload))
	if u.OnRecv != nil {
		u.OnRecv(payload, src, sport)
	}
}

// TCPReceiver is the DUT-side TCP endpoint for TCP_STREAM: it accepts
// in-order segments, acknowledges every other segment (delayed ACK), and
// reports received payload to the application callback. Out-of-order
// segments are dropped (the benchmark link never reorders).
type TCPReceiver struct {
	Port   uint16
	OnData func(n int)

	rcvNxt     uint32
	started    bool
	unacked    int
	RxSegments uint64
	RxBytes    uint64
	OutOfOrder uint64
}

// AckEvery controls the delayed-ACK ratio (Linux acks every 2nd full
// segment).
const AckEvery = 2

// TCPListen installs a receiver on port.
func (s *Stack) TCPListen(port uint16, onData func(n int)) (*TCPReceiver, error) {
	if _, dup := s.tcp[port]; dup {
		return nil, fmt.Errorf("netstack: TCP port %d in use", port)
	}
	r := &TCPReceiver{Port: port, OnData: onData}
	s.tcp[port] = r
	return r, nil
}

// TCPCloseListener releases the port.
func (s *Stack) TCPCloseListener(port uint16) { delete(s.tcp, port) }

func (r *TCPReceiver) segment(ifc *Iface, eh EthHeader, ih IPv4Header, th TCPHeader, payload []byte) {
	s := ifc.stack
	if th.Flags&TCPSyn != 0 {
		// Accept the stream: next expected byte follows the SYN.
		r.rcvNxt = th.Seq + 1
		r.started = true
		r.sendAck(ifc, eh, ih, th)
		return
	}
	if !r.started {
		return
	}
	if th.Seq != r.rcvNxt {
		r.OutOfOrder++
		// Re-ACK the expected sequence so the sender retransmits.
		r.sendAck(ifc, eh, ih, th)
		return
	}
	r.rcvNxt += uint32(len(payload))
	r.RxSegments++
	r.RxBytes += uint64(len(payload))
	if r.OnData != nil && len(payload) > 0 {
		s.Acct.Charge(CostSockDeliver)
		r.OnData(len(payload))
	}
	r.unacked++
	if r.unacked >= AckEvery || th.Flags&TCPPsh != 0 || th.Flags&TCPFin != 0 {
		r.unacked = 0
		r.sendAck(ifc, eh, ih, th)
	}
}

func (r *TCPReceiver) sendAck(ifc *Iface, eh EthHeader, ih IPv4Header, th TCPHeader) {
	s := ifc.stack
	ack := AppendTCPFrame(s.txBufs.Get(0), ifc.MAC, eh.Src, ih.Dst, ih.Src, TCPHeader{
		SrcPort: th.DstPort,
		DstPort: th.SrcPort,
		Seq:     0,
		Ack:     r.rcvNxt,
		Flags:   TCPAck,
		Window:  0xFFFF,
	}, nil)
	// ACK generation is lighter than a data send.
	if err := s.xmit(ifc, ack); err != nil {
		s.TxErrors++
	}
	s.txBufs.Put(ack)
}
