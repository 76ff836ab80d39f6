package netstack

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// The reference construction: L4 marshalled into a buffer of its own, then
// copied behind the IPv4 header, and a checksum computed with the generic
// RFC 1071 routine over pseudo-header + segment, the checksum field zeroed
// in a copy. AppendUDPFrame/AppendTCPFrame and in-place verification must
// match it byte for byte and verdict for verdict.

func refL4Checksum(src, dst IP, proto uint8, seg []byte, ckOff int) uint16 {
	buf := make([]byte, 0, 12+len(seg))
	buf = append(buf, src[:]...)
	buf = append(buf, dst[:]...)
	buf = append(buf, 0, proto)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(seg)))
	buf = append(buf, seg...)
	buf[12+ckOff], buf[12+ckOff+1] = 0, 0
	ck := Checksum(buf)
	if ck == 0 {
		ck = 0xFFFF
	}
	return ck
}

func refFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP, proto uint8, l4 []byte) []byte {
	eh := EthHeader{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	frame := eh.Marshal(nil)
	ih := IPv4Header{Proto: proto, TTL: 64, Src: srcIP, Dst: dstIP}
	frame = ih.Marshal(frame, len(l4))
	return append(frame, l4...)
}

func refUDPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP, sport, dport uint16, payload []byte) []byte {
	udp := binary.BigEndian.AppendUint16(nil, sport)
	udp = binary.BigEndian.AppendUint16(udp, dport)
	udp = binary.BigEndian.AppendUint16(udp, uint16(UDPHeaderLen+len(payload)))
	udp = append(udp, 0, 0)
	udp = append(udp, payload...)
	binary.BigEndian.PutUint16(udp[6:8], refL4Checksum(srcIP, dstIP, ProtoUDP, udp, 6))
	return refFrame(srcMAC, dstMAC, srcIP, dstIP, ProtoUDP, udp)
}

func refTCPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP, h TCPHeader, payload []byte) []byte {
	tcp := binary.BigEndian.AppendUint16(nil, h.SrcPort)
	tcp = binary.BigEndian.AppendUint16(tcp, h.DstPort)
	tcp = binary.BigEndian.AppendUint32(tcp, h.Seq)
	tcp = binary.BigEndian.AppendUint32(tcp, h.Ack)
	tcp = append(tcp, 5<<4, h.Flags)
	tcp = binary.BigEndian.AppendUint16(tcp, h.Window)
	tcp = append(tcp, 0, 0, 0, 0)
	tcp = append(tcp, payload...)
	binary.BigEndian.PutUint16(tcp[16:18], refL4Checksum(srcIP, dstIP, ProtoTCP, tcp, 16))
	return refFrame(srcMAC, dstMAC, srcIP, dstIP, ProtoTCP, tcp)
}

// refAccepts is the reference checksum verdict on the L4 part of a frame.
func refAccepts(src, dst IP, proto uint8, seg []byte) bool {
	if proto == ProtoUDP {
		l := int(binary.BigEndian.Uint16(seg[4:6]))
		if l < UDPHeaderLen || l > len(seg) {
			return false
		}
		return refL4Checksum(src, dst, proto, seg[:l], 6) == binary.BigEndian.Uint16(seg[6:8])
	}
	return refL4Checksum(src, dst, proto, seg, 16) == binary.BigEndian.Uint16(seg[16:18])
}

// TestFramesMatchReferenceConstruction builds UDP and TCP frames over random
// and odd-length payloads, checks them byte for byte against the reference
// construction, then corrupts them (payload, header and checksum bytes) and
// checks ParseUDP/ParseTCP's in-place verdict against the reference's.
func TestFramesMatchReferenceConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randIP := func() (ip IP) { rng.Read(ip[:]); return }
	randMAC := func() (m MAC) { rng.Read(m[:]); return }
	lengths := []int{0, 1, 2, 3, 17, 63, 64, 255, 1471, 1472}
	for i := 0; i < 200; i++ {
		lengths = append(lengths, rng.Intn(1500))
	}
	for _, n := range lengths {
		payload := make([]byte, n)
		rng.Read(payload)
		srcMAC, dstMAC, srcIP, dstIP := randMAC(), randMAC(), randIP(), randIP()
		sport, dport := uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))
		th := TCPHeader{SrcPort: sport, DstPort: dport, Seq: rng.Uint32(), Ack: rng.Uint32(),
			Flags: uint8(rng.Intn(256)), Window: uint16(rng.Intn(1 << 16))}

		frames := []struct {
			proto     uint8
			got, want []byte
		}{
			{ProtoUDP, AppendUDPFrame(nil, srcMAC, dstMAC, srcIP, dstIP, sport, dport, payload),
				refUDPFrame(srcMAC, dstMAC, srcIP, dstIP, sport, dport, payload)},
			{ProtoTCP, AppendTCPFrame(nil, srcMAC, dstMAC, srcIP, dstIP, th, payload),
				refTCPFrame(srcMAC, dstMAC, srcIP, dstIP, th, payload)},
		}
		for _, f := range frames {
			if !bytes.Equal(f.got, f.want) {
				t.Fatalf("proto %d, %d-byte payload: frame differs from the reference", f.proto, n)
			}
			l4 := f.got[EthHeaderLen+IPv4HeaderLen:]
			ckOff := 6
			if f.proto == ProtoTCP {
				ckOff = 16
			}
			// Untouched, one corrupted byte anywhere in L4, and a
			// corrupted checksum field.
			corrupt := []int{-1, rng.Intn(len(l4)), ckOff + rng.Intn(2)}
			for _, at := range corrupt {
				seg := bytes.Clone(l4)
				if at >= 0 {
					seg[at] ^= byte(1 + rng.Intn(255))
				}
				var err error
				if f.proto == ProtoUDP {
					_, _, err = ParseUDP(srcIP, dstIP, seg, true)
				} else {
					_, _, err = ParseTCP(srcIP, dstIP, seg, true)
				}
				if want := refAccepts(srcIP, dstIP, f.proto, seg); (err == nil) != want {
					t.Fatalf("proto %d, %d-byte payload, byte %d corrupted: accepted=%v, reference %v (%v)",
						f.proto, n, at, err == nil, want, err)
				}
				if at == -1 && err != nil {
					t.Fatalf("proto %d: intact frame rejected: %v", f.proto, err)
				}
			}
		}
	}
}

// TestParseVerifyAllocatesNothing: checksum verification reads the segment
// in place.
func TestParseVerifyAllocatesNothing(t *testing.T) {
	src, dst := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	udp := AppendUDPFrame(nil, MAC{1}, MAC{2}, src, dst, 5000, 6000, []byte("odd-length"))[EthHeaderLen+IPv4HeaderLen:]
	tcp := AppendTCPFrame(nil, MAC{1}, MAC{2}, src, dst, TCPHeader{SrcPort: 1, DstPort: 2}, []byte("x"))[EthHeaderLen+IPv4HeaderLen:]
	if a := testing.AllocsPerRun(100, func() {
		if _, _, err := ParseUDP(src, dst, udp, true); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ParseTCP(src, dst, tcp, true); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("verifying parse allocates %v times", a)
	}
}
