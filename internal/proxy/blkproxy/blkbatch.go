package blkproxy

import (
	"encoding/binary"
	"errors"
)

// Batched completion framing — the block analogue of ethproxy's rxbatch.
//
// On a multi-queue channel the driver process posts I/O completions as
// (tag, status, buffer-reference) tuples, batched up to MaxBlkBatch per
// downcall message: one ring slot (and, with downcall batching, a fraction
// of one doorbell) carries a whole interrupt's worth of completions for a
// queue. The batch bytes are written by the untrusted driver process, so
// the kernel-side decoder treats them as hostile input: it never panics,
// bounds every count and length, and malformed batches are dropped and
// counted, never dispatched. DecodeBlkBatch is fuzzed for exactly that
// reason.
//
// Batch layout (little-endian):
//
//	[0:2)   completion count
//	[2:..)  count × { [0:8) tag, [8:10) status, [10:18) buffer IOVA,
//	                  [18:22) length }
const (
	// MaxBlkBatch is the most completions one batch downcall may carry.
	MaxBlkBatch = 32

	blkBatchHeaderLen = 2
	blkCompLen        = 22

	// MaxBlkBatchLen is the longest batch: a sender encodes into a buffer
	// of this size without growing it.
	MaxBlkBatchLen = blkBatchHeaderLen + blkCompLen*MaxBlkBatch
)

// CompRef is one I/O completion: the kernel's request tag, the device
// status, and — for successful reads — a buffer in the driver's own DMA
// memory holding the payload. The kernel validates the range against the
// driver's allocations before touching it, like every other shared-memory
// reference.
type CompRef struct {
	Tag    uint64
	Status uint16
	IOVA   uint64
	Len    uint32
}

// Batch decode errors.
var (
	ErrBatchShort = errors.New("blkproxy: completion batch shorter than header")
	ErrBatchCount = errors.New("blkproxy: completion batch count out of range")
	ErrBatchTrunc = errors.New("blkproxy: completion batch truncated")
	ErrBatchSlack = errors.New("blkproxy: completion batch has trailing bytes")
)

// AppendBlkBatch appends the batch bytes for up to MaxBlkBatch completions
// to dst and returns the extended slice. Longer slices are truncated to
// MaxBlkBatch (callers flush at the bound).
func AppendBlkBatch(dst []byte, comps []CompRef) []byte {
	if len(comps) > MaxBlkBatch {
		comps = comps[:MaxBlkBatch]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(comps)))
	for _, c := range comps {
		dst = binary.LittleEndian.AppendUint64(dst, c.Tag)
		dst = binary.LittleEndian.AppendUint16(dst, c.Status)
		dst = binary.LittleEndian.AppendUint64(dst, c.IOVA)
		dst = binary.LittleEndian.AppendUint32(dst, c.Len)
	}
	return dst
}

// DecodeBlkBatch unmarshals batch bytes written by the (untrusted) driver
// process into dst's storage: the completions it returns are dst[:0]
// extended, so a dst with room for MaxBlkBatch never grows. It never panics
// on arbitrary input; malformed batches return an error.
func DecodeBlkBatch(dst []CompRef, buf []byte) ([]CompRef, error) {
	if len(buf) < blkBatchHeaderLen {
		return nil, ErrBatchShort
	}
	count := int(binary.LittleEndian.Uint16(buf))
	if count == 0 || count > MaxBlkBatch {
		return nil, ErrBatchCount
	}
	want := blkBatchHeaderLen + blkCompLen*count
	if len(buf) < want {
		return nil, ErrBatchTrunc
	}
	if len(buf) > want {
		return nil, ErrBatchSlack
	}
	comps := dst[:0]
	for off := blkBatchHeaderLen; off < want; off += blkCompLen {
		e := buf[off : off+blkCompLen]
		comps = append(comps, CompRef{
			Tag:    binary.LittleEndian.Uint64(e[0:]),
			Status: binary.LittleEndian.Uint16(e[8:]),
			IOVA:   binary.LittleEndian.Uint64(e[10:]),
			Len:    binary.LittleEndian.Uint32(e[18:]),
		})
	}
	return comps, nil
}
