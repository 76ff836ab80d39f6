package protocol

import (
	"encoding/binary"
	"errors"
)

// Per-queue epoch framing (queue-granular shadow recovery).
//
// When the supervisor quarantines a single hardware queue — its DMA
// sub-domain is revoked and the kernel parks only that queue's contexts —
// the driver process is told by an OpQueueEpoch upcall carrying this frame,
// and told again when the queue is re-armed at its new epoch. The runtime
// mirrors the epoch and stamps it on every completion it sends for that
// queue, so the proxy can reject completions minted for a quarantined
// incarnation of the queue while siblings' traffic flows untouched.
//
// The frame crosses the untrusted shared-memory ring in both directions
// conceptually (the upcall is kernel-written, but a hostile peer can replay
// or corrupt ring slots), so the decoder is defensive like the recycle
// framing: exact length, bounded values, unknown flags rejected.
//
// Wire format (little-endian):
//
//	u16 queue | u32 epoch | u8 flags
//
// Exactly one of QStateParked / QStateArmed must be set.

// QState flag bits.
const (
	// QStateParked: the queue is quarantined — its DMA sub-domain is
	// revoked and the kernel parks its submissions. The driver should
	// stop burning CPU on it.
	QStateParked = 1 << 0
	// QStateArmed: the queue is re-armed at Epoch — the runtime adopts
	// the new epoch stamp and drops work held for the dead incarnation.
	QStateArmed = 1 << 1
)

// MaxQStateQueue bounds the queue index one frame may name.
const MaxQStateQueue = 255

// QStateLen is the length of one qstate frame: a sender encodes into a
// buffer of this size without growing it.
const QStateLen = 2 + 4 + 1

// QState is one decoded per-queue epoch transition.
type QState struct {
	Queue int
	Epoch uint32
	Flags uint8
}

// Parked reports whether the frame quarantines the queue.
func (s QState) Parked() bool { return s.Flags&QStateParked != 0 }

// Armed reports whether the frame re-arms the queue.
func (s QState) Armed() bool { return s.Flags&QStateArmed != 0 }

// QState decode errors (exported for fuzz and proxy tests).
var (
	ErrQStateSize  = errors.New("protocol: qstate frame is not exactly one record")
	ErrQStateQueue = errors.New("protocol: qstate queue index out of range")
	ErrQStateFlags = errors.New("protocol: qstate flags invalid")
)

// AppendQState appends the frame for one queue-epoch transition to dst and
// returns the extended slice. Panics on out-of-range values — senders
// control their own frames; only decoders face untrusted input.
func AppendQState(dst []byte, s QState) []byte {
	if s.Queue < 0 || s.Queue > MaxQStateQueue {
		panic("protocol: qstate queue out of range")
	}
	if !validQStateFlags(s.Flags) {
		panic("protocol: qstate flags invalid")
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(s.Queue))
	dst = binary.LittleEndian.AppendUint32(dst, s.Epoch)
	return append(dst, s.Flags)
}

// DecodeQState defensively decodes a qstate frame from the shared ring.
// Every structural violation is an error; the caller counts it against the
// peer and drops the frame.
func DecodeQState(buf []byte) (QState, error) {
	if len(buf) != QStateLen {
		return QState{}, ErrQStateSize
	}
	s := QState{
		Queue: int(binary.LittleEndian.Uint16(buf[0:])),
		Epoch: binary.LittleEndian.Uint32(buf[2:]),
		Flags: buf[6],
	}
	if s.Queue > MaxQStateQueue {
		return QState{}, ErrQStateQueue
	}
	if !validQStateFlags(s.Flags) {
		return QState{}, ErrQStateFlags
	}
	return s, nil
}

// validQStateFlags admits exactly one of parked/armed and no unknown bits.
func validQStateFlags(f uint8) bool {
	return f == QStateParked || f == QStateArmed
}
