package uchan

import (
	"encoding/binary"
	"errors"
)

// Multi-queue ring-slot framing.
//
// Single-ring channels pass Msg values directly: both sides were built
// together and the slot layout is implicit. Multi-queue channels tag every
// slot with its queue so the kernel can demultiplex N rings that share one
// driver process, and — because the driver process writes downcall slots
// into shared memory — the kernel side must treat the bytes as untrusted
// input and decode them defensively (§3.1.1: no semantic assumptions about
// what the driver wrote). DecodeSlot is fuzzed for exactly that reason.
//
// Slot layout (little-endian):
//
//	[0:4)   op
//	[4:8)   seq
//	[8:10)  queue
//	[10:12) flags (bit 0: urgent)
//	[12:60) args[0..5]
//	[60:64) data length
//	[64:..) data
const (
	slotHeaderLen = 64

	// MaxSlotData bounds the inline payload of one slot; anything larger
	// travels as a shared-memory reference in Args instead.
	MaxSlotData = 64 * 1024

	// MaxQueues bounds the queue tag (and the fan-out NewMulti accepts).
	MaxQueues = 64

	flagUrgent = 1 << 0
)

// Slot decode errors. A malformed slot from the driver is dropped and
// counted, never trusted.
var (
	ErrSlotShort   = errors.New("uchan: slot shorter than header")
	ErrSlotQueue   = errors.New("uchan: slot queue tag out of range")
	ErrSlotLength  = errors.New("uchan: slot data length invalid")
	ErrSlotPayload = errors.New("uchan: slot payload truncated")
)

// AppendSlot marshals one message and its queue tag as ring-slot bytes
// appended to dst, and returns the extended slice.
func AppendSlot(dst []byte, queue int, m Msg) []byte {
	var flags uint16
	if m.urgent {
		flags |= flagUrgent
	}
	dst = binary.LittleEndian.AppendUint32(dst, m.Op)
	dst = binary.LittleEndian.AppendUint32(dst, m.Seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(queue))
	dst = binary.LittleEndian.AppendUint16(dst, flags)
	for _, a := range m.Args {
		dst = binary.LittleEndian.AppendUint64(dst, a)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Data)))
	return append(dst, m.Data...)
}

// DecodeSlot unmarshals ring-slot bytes written by the (untrusted) peer. It
// never panics on arbitrary input; malformed slots return an error. The
// payload is copied out, into dst's storage (m.Data is dst[:0] extended):
// the bytes stay in shared memory the driver can rewrite, so the kernel
// works only on its own copy (§3.1.1). A slot without payload leaves
// m.Data nil.
func DecodeSlot(dst, buf []byte) (queue int, m Msg, err error) {
	if len(buf) < slotHeaderLen {
		return 0, Msg{}, ErrSlotShort
	}
	queue = int(binary.LittleEndian.Uint16(buf[8:10]))
	if queue >= MaxQueues {
		return 0, Msg{}, ErrSlotQueue
	}
	dlen := binary.LittleEndian.Uint32(buf[60:64])
	if dlen > MaxSlotData {
		return 0, Msg{}, ErrSlotLength
	}
	if len(buf)-slotHeaderLen < int(dlen) {
		return 0, Msg{}, ErrSlotPayload
	}
	m.Op = binary.LittleEndian.Uint32(buf[0:4])
	m.Seq = binary.LittleEndian.Uint32(buf[4:8])
	m.urgent = binary.LittleEndian.Uint16(buf[10:12])&flagUrgent != 0
	for i := range m.Args {
		m.Args[i] = binary.LittleEndian.Uint64(buf[12+8*i : 20+8*i])
	}
	if dlen > 0 {
		m.Data = append(dst[:0], buf[slotHeaderLen:slotHeaderLen+int(dlen)]...)
	}
	return queue, m, nil
}
