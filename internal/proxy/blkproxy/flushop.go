package blkproxy

import (
	"encoding/binary"
	"errors"
)

// Flush-barrier framing — the durability cousin of the completion batch.
//
// A flush crosses the channel as an OpFlush upcall whose Data carries one
// encoded FlushOp, and comes back as an OpFlushDone downcall carrying the
// same structure with the status filled in. The downcall bytes are written
// by the untrusted driver process, so the kernel-side decoder treats them
// as hostile input (never panics, exact length, no slack) and the proxy
// validates every echoed field against its own barrier accounting before
// the block core hears that anything became durable: the barrier sequence
// must be the one in flight, the epoch must be the proxy's own bind epoch
// (a dead incarnation cannot complete a barrier its successor issued), and
// the tag must match the flush request. DecodeFlushOp is fuzzed for
// exactly that reason.
//
// Layout (little-endian):
//
//	[0:8)   barrier sequence number (per device epoch)
//	[8:16)  device incarnation epoch the barrier was issued under
//	[16:24) kernel request tag of the flush
//	[24:26) completion status (0 in the upcall direction)

// FlushOpLen is the length of one flush barrier frame: a sender encodes
// into a buffer of this size without growing it.
const FlushOpLen = 26

// FlushOp is one flush barrier on the wire.
type FlushOp struct {
	Barrier uint64
	Epoch   uint64
	Tag     uint64
	Status  uint16
}

// Flush framing decode errors.
var ErrFlushOpLen = errors.New("blkproxy: flush op is not exactly one frame")

// AppendFlushOp appends one flush barrier frame to dst and returns the
// extended slice.
func AppendFlushOp(dst []byte, f FlushOp) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, f.Barrier)
	dst = binary.LittleEndian.AppendUint64(dst, f.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, f.Tag)
	return binary.LittleEndian.AppendUint16(dst, f.Status)
}

// DecodeFlushOp unmarshals one flush barrier frame written by the
// (untrusted) driver process. It never panics on arbitrary input; anything
// that is not exactly one frame returns an error.
func DecodeFlushOp(buf []byte) (FlushOp, error) {
	if len(buf) != FlushOpLen {
		return FlushOp{}, ErrFlushOpLen
	}
	return FlushOp{
		Barrier: binary.LittleEndian.Uint64(buf[0:]),
		Epoch:   binary.LittleEndian.Uint64(buf[8:]),
		Tag:     binary.LittleEndian.Uint64(buf[16:]),
		Status:  binary.LittleEndian.Uint16(buf[24:]),
	}, nil
}
