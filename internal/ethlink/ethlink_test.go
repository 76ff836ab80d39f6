package ethlink

import (
	"bytes"
	"errors"
	"testing"

	"sud/internal/sim"
)

type sink struct {
	frames [][]byte
	at     []sim.Time
	loop   *sim.Loop
}

func (s *sink) LinkDeliver(f []byte) {
	s.frames = append(s.frames, bytes.Clone(f))
	s.at = append(s.at, s.loop.Now())
}

func pair(loop *sim.Loop, prop sim.Duration) (*Link, *sink, *sink) {
	l := NewGigabit(loop, prop)
	a, b := &sink{loop: loop}, &sink{loop: loop}
	l.Connect(a, b)
	return l, a, b
}

func TestSerializationDelay(t *testing.T) {
	loop := sim.NewLoop()
	l := NewGigabit(loop, 0)
	// A 1514-byte frame: (1514+24)*8 = 12304 bits at 1 Gb/s = 12304 ns.
	if d := l.SerializationDelay(1514); d != 12304 {
		t.Fatalf("delay = %v, want 12304ns", d)
	}
	// Runt frames are padded to the 60-byte minimum.
	if d := l.SerializationDelay(10); d != l.SerializationDelay(60) {
		t.Fatal("runt frame not padded to minimum")
	}
}

func TestDeliveryAndTiming(t *testing.T) {
	loop := sim.NewLoop()
	l, _, b := pair(loop, 500)
	frame := make([]byte, 1514)
	frame[0] = 0xAB
	if err := l.Send(0, frame); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if len(b.frames) != 1 || b.frames[0][0] != 0xAB {
		t.Fatalf("delivered %d frames", len(b.frames))
	}
	if b.at[0] != 12304+500 {
		t.Fatalf("delivered at %v, want 12804ns", b.at[0])
	}
}

func TestFrameIsCopied(t *testing.T) {
	loop := sim.NewLoop()
	l, _, b := pair(loop, 0)
	frame := make([]byte, 64)
	frame[5] = 1
	if err := l.Send(0, frame); err != nil {
		t.Fatal(err)
	}
	frame[5] = 99 // sender reuses its buffer
	loop.Run()
	if b.frames[0][5] != 1 {
		t.Fatal("link did not copy the frame at send time")
	}
}

func TestBackToBackSerialization(t *testing.T) {
	loop := sim.NewLoop()
	l, _, b := pair(loop, 0)
	f := make([]byte, 1514)
	for i := 0; i < 3; i++ {
		if err := l.Send(0, f); err != nil {
			t.Fatal(err)
		}
	}
	loop.Run()
	if len(b.frames) != 3 {
		t.Fatalf("delivered %d", len(b.frames))
	}
	// Frames serialize sequentially: 12304, 24608, 36912.
	for i, want := range []sim.Time{12304, 24608, 36912} {
		if b.at[i] != want {
			t.Fatalf("frame %d at %v, want %v", i, b.at[i], want)
		}
	}
}

func TestFullDuplexIndependentPipes(t *testing.T) {
	loop := sim.NewLoop()
	l, a, b := pair(loop, 0)
	f := make([]byte, 1514)
	if err := l.Send(0, f); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(1, f); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	// Both directions complete at the same time: no shared medium.
	if a.at[0] != b.at[0] {
		t.Fatalf("duplex directions interfered: %v vs %v", a.at[0], b.at[0])
	}
}

func TestCarrierDown(t *testing.T) {
	loop := sim.NewLoop()
	l, _, b := pair(loop, 0)
	l.SetCarrier(false)
	if err := l.Send(0, make([]byte, 64)); !errors.Is(err, ErrNoCarrier) {
		t.Fatalf("send without carrier: err = %v, want ErrNoCarrier", err)
	}
	if l.Carrier() {
		t.Fatal("carrier reads up")
	}
	loop.Run()
	if len(b.frames) != 0 {
		t.Fatal("frame delivered without carrier")
	}
	_, _, drops := l.Stats(0)
	if drops != 1 {
		t.Fatalf("drops = %d", drops)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	loop := sim.NewLoop()
	l, _, _ := pair(loop, 0)
	if err := l.Send(0, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestQueueLimitDrops(t *testing.T) {
	loop := sim.NewLoop()
	l, _, _ := pair(loop, 0)
	l.QueueLimit = 20 * sim.Microsecond
	f := make([]byte, 1514) // 12.3 µs each
	var errs int
	for i := 0; i < 10; i++ {
		if err := l.Send(0, f); err != nil {
			if !errors.Is(err, ErrOverrun) {
				t.Fatalf("err = %v, want ErrOverrun", err)
			}
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("FIFO never overran")
	}
	frames, _, drops := l.Stats(0)
	if int(frames)+errs != 10 || int(drops) != errs {
		t.Fatalf("frames=%d drops=%d errs=%d", frames, drops, errs)
	}
}

func TestBadSideAndUnconnected(t *testing.T) {
	loop := sim.NewLoop()
	l := NewGigabit(loop, 0)
	if err := l.Send(2, make([]byte, 64)); err == nil {
		t.Fatal("bad side accepted")
	}
	if err := l.Send(0, make([]byte, 64)); err == nil {
		t.Fatal("send on unconnected link succeeded")
	}
}

func TestGigabitSaturationRate(t *testing.T) {
	// Sanity-check the 941 Mbit/s figure: 1448-byte TCP payload in a
	// 1514-byte frame at line rate.
	loop := sim.NewLoop()
	l, _, b := pair(loop, 0)
	payload := 1448
	frame := make([]byte, HeaderLen+20+32+payload) // eth + IP + TCP w/ options
	n := 0
	for loop.Now() < 10*sim.Millisecond {
		if err := l.Send(0, frame); err == nil {
			n++
		}
		loop.RunFor(l.SerializationDelay(len(frame)))
	}
	elapsed := loop.Now().Seconds()
	mbps := float64(len(b.frames)*payload*8) / elapsed / 1e6
	if mbps < 935 || mbps > 950 {
		t.Fatalf("saturated payload rate = %.1f Mbit/s, want ~941", mbps)
	}
	_ = n
}

// TestMixedFramesBothSidesInOrder: frames of mixed sizes from both sides
// arrive intact and in send order, each side's frame one serialization
// delay after its side's previous frame finished (or after its send, when
// the pipe was idle) plus propagation. Part of the traffic is sent while
// earlier frames are still in flight, so each side's wire FIFO wraps.
func TestMixedFramesBothSidesInOrder(t *testing.T) {
	const prop = 300
	loop := sim.NewLoop()
	l, a, b := pair(loop, prop)
	sinks := [2]*sink{b, a} // side s delivers to the other end
	var want [2][][]byte
	var wantAt [2][]sim.Time
	var busy [2]sim.Time
	sizes := []int{60, 1514, 60, 60, 1514, 100, 1514, 60, 1000, 60}
	for round := 0; round < 6; round++ {
		for i, n := range sizes {
			side := (i + round) % 2
			f := bytes.Repeat([]byte{byte(round*len(sizes) + i)}, n)
			if err := l.Send(side, f); err != nil {
				t.Fatal(err)
			}
			busy[side] = max(busy[side], loop.Now()) + l.SerializationDelay(n)
			want[side] = append(want[side], f)
			wantAt[side] = append(wantAt[side], busy[side]+prop)
		}
		loop.RunFor(25 * sim.Microsecond) // about half the round arrives
	}
	loop.Run()
	for side, s := range sinks {
		if len(s.frames) != len(want[side]) {
			t.Fatalf("side %d: delivered %d frames, want %d", side, len(s.frames), len(want[side]))
		}
		for i := range want[side] {
			if !bytes.Equal(s.frames[i], want[side][i]) {
				t.Fatalf("side %d frame %d: wrong bytes", side, i)
			}
			if s.at[i] != wantAt[side][i] {
				t.Fatalf("side %d frame %d at %v, want %v", side, i, s.at[i], wantAt[side][i])
			}
		}
	}
}

// TestConnectBetweenSendsKeepsPeer: a frame goes to the endpoint that was
// connected when it was sent, even if the link is rewired before it
// arrives.
func TestConnectBetweenSendsKeepsPeer(t *testing.T) {
	loop := sim.NewLoop()
	l, a, b := pair(loop, 0)
	c := &sink{loop: loop}
	if err := l.Send(0, []byte("to b")); err != nil {
		t.Fatal(err)
	}
	l.Connect(a, c)
	if err := l.Send(0, []byte("to c")); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if len(b.frames) != 1 || string(b.frames[0]) != "to b" {
		t.Fatalf("b got %q", b.frames)
	}
	if len(c.frames) != 1 || string(c.frames[0]) != "to c" {
		t.Fatalf("c got %q", c.frames)
	}
}

// counter is an endpoint that keeps nothing.
type counter struct{ n int }

func (c *counter) LinkDeliver([]byte) { c.n++ }

// TestSendDeliverAllocatesNothing pins the wire: once its FIFOs have grown,
// sending frames both ways and delivering them allocates nothing.
func TestSendDeliverAllocatesNothing(t *testing.T) {
	loop := sim.NewLoop()
	l := NewGigabit(loop, 300)
	end := &counter{}
	l.Connect(end, end)
	f := make([]byte, MaxFrame)
	cycle := func() {
		for _, n := range []int{60, MaxFrame, 60, 200} {
			for side := 0; side < 2; side++ {
				if err := l.Send(side, f[:n]); err != nil {
					t.Fatal(err)
				}
			}
		}
		loop.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("send and delivery allocate %v times per cycle", n)
	}
	if end.n != 102*8 {
		t.Fatalf("delivered %d frames, want %d", end.n, 102*8)
	}
}
