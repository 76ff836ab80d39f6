// Package netstack is the mini network stack of the simulated kernel: real
// Ethernet/IPv4/UDP/TCP header marshalling with Internet checksums, network
// interfaces bound to driver netdev ops, UDP sockets and a TCP-lite receive
// path sufficient to drive the paper's netperf benchmarks, and the firewall
// hook the §3.1.2 TOCTOU discussion needs.
package netstack

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// MAC is an Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IP is an IPv4 address.
type IP [4]byte

func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Protocol numbers and ethertypes.
const (
	EtherTypeIPv4 = 0x0800
	ProtoUDP      = 17
	ProtoTCP      = 6

	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20

	// MTU is the interfaces' IP MTU, standard Ethernet's.
	MTU = 1500
	// MaxFrameLen is the largest frame the stack builds: one MTU behind
	// the MAC header.
	MaxFrameLen = EthHeaderLen + MTU
	// MaxUDPPayload is the largest datagram payload one frame carries; the
	// stack does not fragment.
	MaxUDPPayload = MTU - IPv4HeaderLen - UDPHeaderLen
)

// TCP flags.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPAck = 1 << 4
	TCPPsh = 1 << 3
)

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// EthHeader is a MAC header.
type EthHeader struct {
	Dst, Src  MAC
	EtherType uint16
}

// Marshal appends the header to dst.
func (h *EthHeader) Marshal(dst []byte) []byte {
	dst = append(dst, h.Dst[:]...)
	dst = append(dst, h.Src[:]...)
	return binary.BigEndian.AppendUint16(dst, h.EtherType)
}

// ParseEth decodes the MAC header and returns the payload.
func ParseEth(frame []byte) (EthHeader, []byte, error) {
	if len(frame) < EthHeaderLen {
		return EthHeader{}, nil, fmt.Errorf("netstack: short ethernet frame (%d bytes)", len(frame))
	}
	var h EthHeader
	copy(h.Dst[:], frame[0:6])
	copy(h.Src[:], frame[6:12])
	h.EtherType = binary.BigEndian.Uint16(frame[12:14])
	return h, frame[14:], nil
}

// IPv4Header is an IPv4 header without options.
type IPv4Header struct {
	Proto    uint8
	TTL      uint8
	Src, Dst IP
	// TotalLen is filled in by Marshal from the payload length.
	TotalLen uint16
	ID       uint16
}

// Marshal appends a checksummed header for a payload of payloadLen bytes.
func (h *IPv4Header) Marshal(dst []byte, payloadLen int) []byte {
	start := len(dst)
	total := uint16(IPv4HeaderLen + payloadLen)
	dst = append(dst,
		0x45, 0, // version/IHL, TOS
		byte(total>>8), byte(total),
		byte(h.ID>>8), byte(h.ID),
		0x40, 0, // don't fragment
		h.TTL, h.Proto,
		0, 0, // checksum placeholder
	)
	dst = append(dst, h.Src[:]...)
	dst = append(dst, h.Dst[:]...)
	ck := Checksum(dst[start:])
	dst[start+10] = byte(ck >> 8)
	dst[start+11] = byte(ck)
	return dst
}

// ParseIPv4 decodes and verifies an IPv4 header, returning the payload.
func ParseIPv4(b []byte) (IPv4Header, []byte, error) {
	if len(b) < IPv4HeaderLen {
		return IPv4Header{}, nil, fmt.Errorf("netstack: short IPv4 packet")
	}
	if b[0] != 0x45 {
		return IPv4Header{}, nil, fmt.Errorf("netstack: unsupported IPv4 header %#x", b[0])
	}
	if Checksum(b[:IPv4HeaderLen]) != 0 {
		return IPv4Header{}, nil, fmt.Errorf("netstack: bad IPv4 header checksum")
	}
	var h IPv4Header
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) > len(b) || int(h.TotalLen) < IPv4HeaderLen {
		return IPv4Header{}, nil, fmt.Errorf("netstack: IPv4 length %d out of range", h.TotalLen)
	}
	return h, b[IPv4HeaderLen:h.TotalLen], nil
}

// pseudoSum computes the TCP/UDP pseudo-header partial sum.
func pseudoSum(src, dst IP, proto uint8, l4len int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(l4len)
	return sum
}

// l4Checksum computes a transport checksum with pseudo-header over seg,
// reading the 2-byte checksum field at the even offset ckOff as zero — so a
// received segment verifies in place, without a zeroed copy.
func l4Checksum(src, dst IP, proto uint8, seg []byte, ckOff int) uint16 {
	sum := pseudoSum(src, dst, proto, len(seg))
	for i := 0; i+1 < len(seg); i += 2 {
		if i == ckOff {
			continue
		}
		sum += uint32(seg[i])<<8 | uint32(seg[i+1])
	}
	if len(seg)%2 == 1 {
		sum += uint32(seg[len(seg)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	ck := ^uint16(sum)
	if ck == 0 {
		ck = 0xFFFF
	}
	return ck
}

// Offsets of the checksum field in the UDP and TCP headers.
const (
	udpCkOff = 6
	tcpCkOff = 16
)

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
}

// MarshalUDP appends header+payload with a valid checksum.
func MarshalUDP(dst []byte, src, dstIP IP, h UDPHeader, payload []byte) []byte {
	start := len(dst)
	l := UDPHeaderLen + len(payload)
	dst = binary.BigEndian.AppendUint16(dst, h.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, h.DstPort)
	dst = binary.BigEndian.AppendUint16(dst, uint16(l))
	dst = append(dst, 0, 0) // checksum placeholder
	dst = append(dst, payload...)
	ck := l4Checksum(src, dstIP, ProtoUDP, dst[start:], udpCkOff)
	dst[start+6] = byte(ck >> 8)
	dst[start+7] = byte(ck)
	return dst
}

// ParseUDP decodes and verifies a UDP datagram.
func ParseUDP(src, dstIP IP, seg []byte, verify bool) (UDPHeader, []byte, error) {
	if len(seg) < UDPHeaderLen {
		return UDPHeader{}, nil, fmt.Errorf("netstack: short UDP datagram")
	}
	l := int(binary.BigEndian.Uint16(seg[4:6]))
	if l < UDPHeaderLen || l > len(seg) {
		return UDPHeader{}, nil, fmt.Errorf("netstack: UDP length %d out of range", l)
	}
	if verify && l4Checksum(src, dstIP, ProtoUDP, seg[:l], udpCkOff) != binary.BigEndian.Uint16(seg[6:8]) {
		return UDPHeader{}, nil, fmt.Errorf("netstack: bad UDP checksum")
	}
	return UDPHeader{
		SrcPort: binary.BigEndian.Uint16(seg[0:2]),
		DstPort: binary.BigEndian.Uint16(seg[2:4]),
	}, seg[UDPHeaderLen:l], nil
}

// TCPHeader is a TCP header without options.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// MarshalTCP appends header+payload with a valid checksum.
func MarshalTCP(dst []byte, src, dstIP IP, h TCPHeader, payload []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, h.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, h.DstPort)
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	dst = binary.BigEndian.AppendUint32(dst, h.Ack)
	dst = append(dst, 5<<4, h.Flags)
	dst = binary.BigEndian.AppendUint16(dst, h.Window)
	dst = append(dst, 0, 0, 0, 0) // checksum + urgent
	dst = append(dst, payload...)
	ck := l4Checksum(src, dstIP, ProtoTCP, dst[start:], tcpCkOff)
	dst[start+16] = byte(ck >> 8)
	dst[start+17] = byte(ck)
	return dst
}

// ParseTCP decodes and (optionally) verifies a TCP segment.
func ParseTCP(src, dstIP IP, seg []byte, verify bool) (TCPHeader, []byte, error) {
	if len(seg) < TCPHeaderLen {
		return TCPHeader{}, nil, fmt.Errorf("netstack: short TCP segment")
	}
	dataOff := int(seg[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(seg) {
		return TCPHeader{}, nil, fmt.Errorf("netstack: TCP data offset %d out of range", dataOff)
	}
	if verify && l4Checksum(src, dstIP, ProtoTCP, seg, tcpCkOff) != binary.BigEndian.Uint16(seg[16:18]) {
		return TCPHeader{}, nil, fmt.Errorf("netstack: bad TCP checksum")
	}
	return TCPHeader{
		SrcPort: binary.BigEndian.Uint16(seg[0:2]),
		DstPort: binary.BigEndian.Uint16(seg[2:4]),
		Seq:     binary.BigEndian.Uint32(seg[4:8]),
		Ack:     binary.BigEndian.Uint32(seg[8:12]),
		Flags:   seg[13],
		Window:  binary.BigEndian.Uint16(seg[14:16]),
	}, seg[dataOff:], nil
}

// AppendUDPFrame appends a complete Ethernet frame carrying a UDP datagram
// to dst and returns the extended slice; a caller that wants a fresh frame
// passes nil. The datagram length is known up front, so the IPv4 header
// goes first and the datagram is marshalled straight behind it.
func AppendUDPFrame(dst []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP, sport, dport uint16, payload []byte) []byte {
	l4len := UDPHeaderLen + len(payload)
	dst = slices.Grow(dst, EthHeaderLen+IPv4HeaderLen+l4len)
	eh := EthHeader{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	dst = eh.Marshal(dst)
	ih := IPv4Header{Proto: ProtoUDP, TTL: 64, Src: srcIP, Dst: dstIP}
	dst = ih.Marshal(dst, l4len)
	return MarshalUDP(dst, srcIP, dstIP, UDPHeader{SrcPort: sport, DstPort: dport}, payload)
}

// AppendTCPFrame appends a complete Ethernet frame carrying a TCP segment
// to dst, like AppendUDPFrame.
func AppendTCPFrame(dst []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP, h TCPHeader, payload []byte) []byte {
	l4len := TCPHeaderLen + len(payload)
	dst = slices.Grow(dst, EthHeaderLen+IPv4HeaderLen+l4len)
	eh := EthHeader{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	dst = eh.Marshal(dst)
	ih := IPv4Header{Proto: ProtoTCP, TTL: 64, Src: srcIP, Dst: dstIP}
	dst = ih.Marshal(dst, l4len)
	return MarshalTCP(dst, srcIP, dstIP, h, payload)
}
