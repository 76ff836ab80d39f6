package ethproxy

import (
	"encoding/binary"
	"errors"
)

// Batched RX delivery framing.
//
// On a multi-queue channel the driver process posts received frames as
// shared-buffer references, batched up to MaxRxBatch per downcall message:
// one ring slot (and, with downcall batching, a fraction of one doorbell)
// carries a whole interrupt's worth of frames for a queue, instead of one
// message per frame. The batch bytes are written by the untrusted driver
// process, so the kernel-side decoder treats them as hostile input: it never
// panics, bounds every count and length, and malformed batches are dropped
// and counted, never dispatched. DecodeRxBatch is fuzzed for exactly that
// reason.
//
// Batch layout (little-endian):
//
//	[0:2)   frame count
//	[2:..)  count × { [0:8) buffer IOVA, [8:12) length }
const (
	// MaxRxBatch is B: the most frame references one batch downcall may
	// carry (the per-doorbell drain bound of the batched delivery path).
	MaxRxBatch = 32

	rxBatchHeaderLen = 2
	rxRefLen         = 12

	// MaxRxBatchLen is the longest batch: a sender encodes into a buffer
	// of this size without growing it.
	MaxRxBatchLen = rxBatchHeaderLen + rxRefLen*MaxRxBatch
)

// RxRef is one received-frame reference: a buffer in the driver's own DMA
// memory plus its length. The kernel validates the range against the
// driver's allocations before touching it, like every other shared-memory
// reference.
type RxRef struct {
	IOVA uint64
	Len  uint32
}

// Batch decode errors.
var (
	ErrBatchShort = errors.New("ethproxy: rx batch shorter than header")
	ErrBatchCount = errors.New("ethproxy: rx batch count out of range")
	ErrBatchTrunc = errors.New("ethproxy: rx batch truncated")
	ErrBatchSlack = errors.New("ethproxy: rx batch has trailing bytes")
)

// AppendRxBatch appends the batch bytes for up to MaxRxBatch frame
// references to dst and returns the extended slice. Longer slices are
// truncated to MaxRxBatch (callers flush at the bound).
func AppendRxBatch(dst []byte, refs []RxRef) []byte {
	if len(refs) > MaxRxBatch {
		refs = refs[:MaxRxBatch]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(refs)))
	for _, r := range refs {
		dst = binary.LittleEndian.AppendUint64(dst, r.IOVA)
		dst = binary.LittleEndian.AppendUint32(dst, r.Len)
	}
	return dst
}

// DecodeRxBatch unmarshals batch bytes written by the (untrusted) driver
// process into dst's storage: the references it returns are dst[:0]
// extended, so a dst with room for MaxRxBatch never grows. It never panics
// on arbitrary input; malformed batches return an error.
func DecodeRxBatch(dst []RxRef, buf []byte) ([]RxRef, error) {
	if len(buf) < rxBatchHeaderLen {
		return nil, ErrBatchShort
	}
	count := int(binary.LittleEndian.Uint16(buf))
	if count == 0 || count > MaxRxBatch {
		return nil, ErrBatchCount
	}
	want := rxBatchHeaderLen + rxRefLen*count
	if len(buf) < want {
		return nil, ErrBatchTrunc
	}
	if len(buf) > want {
		return nil, ErrBatchSlack
	}
	refs := dst[:0]
	for off := rxBatchHeaderLen; off < want; off += rxRefLen {
		refs = append(refs, RxRef{
			IOVA: binary.LittleEndian.Uint64(buf[off:]),
			Len:  binary.LittleEndian.Uint32(buf[off+8:]),
		})
	}
	return refs, nil
}
