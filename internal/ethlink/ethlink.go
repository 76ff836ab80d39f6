// Package ethlink models a full-duplex Gigabit Ethernet link between two
// endpoints, with per-frame serialization delay and the physical-layer
// overhead (preamble, inter-frame gap, FCS) that makes 941 Mbit/s the
// achievable TCP payload rate on a saturated 1 Gb/s link — the number both
// the in-kernel driver and SUD hit in Figure 8.
package ethlink

import (
	"errors"
	"fmt"

	"sud/internal/fifo"
	"sud/internal/sim"
)

// Physical-layer constants for Ethernet.
const (
	// OverheadBytes is preamble (8) + FCS (4) + inter-frame gap (12):
	// bytes the wire carries per frame beyond the MAC frame itself.
	OverheadBytes = 24
	// MinFrame is the minimum MAC frame size (without FCS in our model).
	MinFrame = 60
	// MTU is the payload capacity of a standard frame.
	MTU = 1500
	// HeaderLen is the Ethernet MAC header length.
	HeaderLen = 14
	// MaxFrame is the largest MAC frame we carry.
	MaxFrame = HeaderLen + MTU
)

// GigabitBps is 1 Gb/s in bits per second.
const GigabitBps = 1_000_000_000

// Endpoint receives frames from the link.
type Endpoint interface {
	// LinkDeliver hands a received frame to the endpoint. The slice is
	// valid only during the call: it is a view of the link's wire FIFO,
	// and an endpoint that keeps the frame copies it.
	LinkDeliver(frame []byte)
}

// Send's drop errors that a saturated or unplugged link produces per
// frame; they are sentinels so a flood formats nothing.
var (
	// ErrOverrun reports a frame dropped because the sender's FIFO was
	// more than QueueLimit ahead of the clock.
	ErrOverrun = errors.New("ethlink: transmit FIFO overrun")
	// ErrNoCarrier reports a frame sent while carrier was down.
	ErrNoCarrier = errors.New("ethlink: no carrier")
)

// Link is a point-to-point full-duplex link. Side 0 and side 1 each have an
// independent serialization pipe.
type Link struct {
	loop *sim.Loop
	rate int64 // bits per second
	prop sim.Duration

	ends      [2]Endpoint
	busyUntil [2]sim.Time
	carrier   bool

	// Per sending side: the frames serialising or in flight, oldest first,
	// each with the endpoint it was sent to, and the callback that delivers
	// the oldest. Deliveries per side fire in send order — a frame's
	// arrival time is its side's busyUntil after the send, which only
	// grows — so the oldest queued frame is always the one arriving.
	wire    [2]fifo.Bytes
	dst     [2]fifo.Queue[Endpoint]
	deliver [2]func()

	// Stats per direction (index = sending side).
	frames [2]uint64
	bytes  [2]uint64
	drops  [2]uint64

	// QueueLimit bounds how far ahead of the clock a sender may queue
	// serialization (a switch/NIC FIFO); beyond it frames drop. Zero
	// means a generous default.
	QueueLimit sim.Duration
}

// NewGigabit returns a 1 Gb/s link with the given propagation delay (a
// switched LAN hop is sub-microsecond; the paper used one switch).
func NewGigabit(loop *sim.Loop, prop sim.Duration) *Link {
	l := &Link{loop: loop, rate: GigabitBps, prop: prop, carrier: true, QueueLimit: 2 * sim.Millisecond}
	l.deliver[0] = func() { l.deliverOldest(0) }
	l.deliver[1] = func() { l.deliverOldest(1) }
	return l
}

// Connect attaches both endpoints. Side 0 and 1 are arbitrary but fixed.
func (l *Link) Connect(a, b Endpoint) {
	l.ends[0] = a
	l.ends[1] = b
}

// SetCarrier raises or drops link carrier (cable pull). Frames sent without
// carrier are dropped.
func (l *Link) SetCarrier(up bool) { l.carrier = up }

// Carrier reports link state.
func (l *Link) Carrier() bool { return l.carrier }

// SerializationDelay returns the wire time for a frame of n MAC bytes.
func (l *Link) SerializationDelay(n int) sim.Duration {
	if n < MinFrame {
		n = MinFrame
	}
	bits := int64(n+OverheadBytes) * 8
	return sim.Duration(bits * int64(sim.Second) / l.rate)
}

// Send transmits frame from the given side (0 or 1). It models the sender's
// FIFO: transmission begins when the pipe is free, and delivery happens one
// serialization delay plus propagation later. Send never blocks; overrunning
// the queue limit drops the frame, as a real FIFO would. The frame is copied
// into the wire FIFO, so the caller may reuse it when Send returns.
func (l *Link) Send(side int, frame []byte) error {
	if side != 0 && side != 1 {
		return fmt.Errorf("ethlink: bad side %d", side)
	}
	if len(frame) > MaxFrame {
		l.drops[side]++
		return fmt.Errorf("ethlink: frame of %d bytes exceeds max %d", len(frame), MaxFrame)
	}
	if !l.carrier {
		l.drops[side]++
		return ErrNoCarrier
	}
	peer := l.ends[1-side]
	if peer == nil {
		l.drops[side]++
		return fmt.Errorf("ethlink: side %d not connected", 1-side)
	}
	now := l.loop.Now()
	start := l.busyUntil[side]
	if start < now {
		start = now
	}
	if start-now > l.QueueLimit {
		l.drops[side]++
		return ErrOverrun
	}
	done := start + l.SerializationDelay(len(frame))
	l.busyUntil[side] = done
	l.frames[side]++
	l.bytes[side] += uint64(len(frame))
	l.wire[side].Push(frame)
	l.dst[side].Push(peer)
	l.loop.At(done+l.prop, l.deliver[side])
	return nil
}

// deliverOldest hands side's oldest frame in flight to the endpoint it was
// sent to, then drops it from the wire.
func (l *Link) deliverOldest(side int) {
	l.dst[side].Pop().LinkDeliver(l.wire[side].Peek())
	l.wire[side].Pop()
}

// Stats returns per-direction counters for the given sending side.
func (l *Link) Stats(side int) (frames, bytes, drops uint64) {
	return l.frames[side], l.bytes[side], l.drops[side]
}
