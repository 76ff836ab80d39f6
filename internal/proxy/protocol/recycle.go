package protocol

import (
	"encoding/binary"
	"errors"
)

// Recycle-ring framing (page-flip fast path, §3.1.2 amortised guard).
//
// When a proxy flips ownership of a buffer page to the kernel it later
// returns the page to the driver on a lazy recycle lane: one upcall carries a
// batch of page IOVAs plus the proxy's view of the device epoch. The driver
// echoes the same framing back as an acknowledgement downcall once it has
// re-armed descriptors over the pages. Both directions cross the untrusted
// shared-memory ring, so both sides decode defensively: a malicious or
// corrupted peer must not be able to crash the decoder or smuggle refs from
// a dead incarnation past the epoch check.
//
// Wire format (little-endian):
//
//	u16 count | u32 epoch | count × u64 page IOVA
//
// The frame length must be exact — trailing slack is rejected, like the RX
// batch framing.

// MaxRecyclePages bounds one recycle frame. The proxies flush well below
// this (qcore.RecycleThreshold); the bound is what the decoder enforces.
const MaxRecyclePages = 64

const recycleHdrSize = 2 + 4
const recycleRefSize = 8

// MaxRecycleLen is the longest recycle frame: a sender encodes into a
// buffer of this size without growing it.
const MaxRecycleLen = recycleHdrSize + MaxRecyclePages*recycleRefSize

// Recycle decode errors (exported for fuzz and proxy tests).
var (
	ErrRecycleShort = errors.New("protocol: recycle frame shorter than header")
	ErrRecycleCount = errors.New("protocol: recycle page count out of range")
	ErrRecycleTrunc = errors.New("protocol: recycle frame truncated")
	ErrRecycleSlack = errors.New("protocol: recycle frame has trailing bytes")
)

// AppendRecycle appends the recycle frame for a batch of flipped-page
// IOVAs with the sender's epoch to dst and returns the extended slice.
// Panics if the batch is empty or exceeds MaxRecyclePages — senders control
// their own batch size; only decoders face untrusted input.
func AppendRecycle(dst []byte, epoch uint32, pages []uint64) []byte {
	if len(pages) == 0 || len(pages) > MaxRecyclePages {
		panic("protocol: recycle batch size out of range")
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(pages)))
	dst = binary.LittleEndian.AppendUint32(dst, epoch)
	for _, p := range pages {
		dst = binary.LittleEndian.AppendUint64(dst, p)
	}
	return dst
}

// DecodeRecycle defensively decodes a recycle frame from the shared ring
// into dst's storage: the pages it returns are dst[:0] extended, so a dst
// with room for MaxRecyclePages never grows. Every structural violation is
// an error; the caller counts it against the peer and drops the frame.
func DecodeRecycle(dst []uint64, buf []byte) (epoch uint32, pages []uint64, err error) {
	if len(buf) < recycleHdrSize {
		return 0, nil, ErrRecycleShort
	}
	n := int(binary.LittleEndian.Uint16(buf[0:]))
	epoch = binary.LittleEndian.Uint32(buf[2:])
	if n == 0 || n > MaxRecyclePages {
		return 0, nil, ErrRecycleCount
	}
	want := recycleHdrSize + n*recycleRefSize
	if len(buf) < want {
		return 0, nil, ErrRecycleTrunc
	}
	if len(buf) > want {
		return 0, nil, ErrRecycleSlack
	}
	pages = dst[:0]
	for off := recycleHdrSize; off < want; off += recycleRefSize {
		pages = append(pages, binary.LittleEndian.Uint64(buf[off:]))
	}
	return epoch, pages, nil
}
