package uchan

import (
	"bytes"
	"fmt"
	"testing"

	"sud/internal/sim"
)

type fixture struct {
	loop *sim.Loop
	kern *sim.CPUAccount
	drv  *sim.CPUAccount
	c    *Chan

	served  []Msg
	replies map[uint32]Msg
	down    []Msg
}

func newFixture() *fixture {
	loop := sim.NewLoop()
	stats := sim.NewCPUStats(2)
	f := &fixture{
		loop:    loop,
		kern:    stats.Account("kernel"),
		drv:     stats.Account("driver"),
		replies: map[uint32]Msg{},
	}
	f.c = New(loop, f.kern, f.drv)
	f.c.DriverHandler = func(m Msg) (Msg, bool) {
		m.Data = bytes.Clone(m.Data) // valid only during the handler
		f.served = append(f.served, m)
		if r, ok := f.replies[m.Op]; ok {
			r.Seq = m.Seq
			return r, true
		}
		return Msg{Seq: m.Seq}, true
	}
	f.c.KernelHandler = func(m Msg) {
		m.Data = bytes.Clone(m.Data)
		f.down = append(f.down, m)
	}
	return f
}

func TestASendWakesAndDrains(t *testing.T) {
	f := newFixture()
	if err := f.c.ASend(Msg{Op: 1}); err != nil {
		t.Fatal(err)
	}
	if len(f.served) != 0 {
		t.Fatal("served before wake latency")
	}
	f.loop.Run()
	if len(f.served) != 1 || f.served[0].Op != 1 {
		t.Fatalf("served %v", f.served)
	}
	st := f.c.Stats()
	if st.Wakeups != 1 || st.Upcalls != 1 {
		t.Fatalf("stats %+v", st)
	}
	if f.kern.Busy() == 0 || f.drv.Busy() == 0 {
		t.Fatal("no CPU charged")
	}
}

func TestBatchDrainSingleWake(t *testing.T) {
	f := newFixture()
	for i := 0; i < 10; i++ {
		if err := f.c.ASend(Msg{Op: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	f.loop.Run()
	if len(f.served) != 10 {
		t.Fatalf("served %d", len(f.served))
	}
	if f.c.Stats().Wakeups != 1 {
		t.Fatalf("wakeups = %d, want 1 (batched)", f.c.Stats().Wakeups)
	}
}

func TestSpinPickupAvoidsWake(t *testing.T) {
	f := newFixture()
	// Interrupt-class message: wakes immediately and leaves the driver
	// polling with an extended window afterwards.
	if err := f.c.ASendUrgent(Msg{Op: 1}); err != nil {
		t.Fatal(err)
	}
	f.loop.RunFor(WakeLatency) // driver drains, enters polling
	// Send within the spin window: no second wake.
	if err := f.c.ASend(Msg{Op: 2}); err != nil {
		t.Fatal(err)
	}
	f.loop.Run()
	st := f.c.Stats()
	if st.Wakeups != 1 || st.SpinPickups != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(f.served) != 2 {
		t.Fatalf("served %d", len(f.served))
	}
}

func TestUrgentWakesImmediately(t *testing.T) {
	f := newFixture()
	if err := f.c.ASendUrgent(Msg{Op: 1}); err != nil {
		t.Fatal(err)
	}
	f.loop.RunFor(WakeLatency)
	if len(f.served) != 1 {
		t.Fatal("urgent upcall not served at wake latency")
	}
}

func TestLazyDoorbellDefersWake(t *testing.T) {
	f := newFixture()
	if err := f.c.ASend(Msg{Op: 1}); err != nil {
		t.Fatal(err)
	}
	// Well after wake latency but before the lazy doorbell: not served.
	f.loop.RunFor(LazyDoorbell / 2)
	if len(f.served) != 0 {
		t.Fatal("lazy upcall served too early")
	}
	f.loop.Run()
	if len(f.served) != 1 {
		t.Fatal("lazy upcall never served")
	}
}

func TestLazyUpcallsRideUrgentWake(t *testing.T) {
	// Queue bulk messages, then an interrupt: everything drains on the
	// interrupt wake, long before the lazy doorbell.
	f := newFixture()
	for i := 0; i < 5; i++ {
		if err := f.c.ASend(Msg{Op: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.c.ASendUrgent(Msg{Op: 99}); err != nil {
		t.Fatal(err)
	}
	f.loop.RunFor(2 * WakeLatency)
	if len(f.served) != 6 {
		t.Fatalf("served %d, want 6 batched on the urgent wake", len(f.served))
	}
	if f.c.Stats().Wakeups != 1 {
		t.Fatalf("wakeups = %d, want 1", f.c.Stats().Wakeups)
	}
}

func TestPollWindowShortAfterBulkDrain(t *testing.T) {
	// A drain with no interrupt-class message polls only MinSpin.
	f := newFixture()
	if err := f.c.ASend(Msg{Op: 1}); err != nil {
		t.Fatal(err)
	}
	f.loop.Run() // lazy wake, drain, MinSpin poll, sleep
	// A follow-up just beyond MinSpin must need a fresh (lazy) wake.
	if err := f.c.ASend(Msg{Op: 2}); err != nil {
		t.Fatal(err)
	}
	f.loop.Run()
	if f.c.Stats().SpinPickups != 0 {
		t.Fatalf("bulk drain left a long poll window: %+v", f.c.Stats())
	}
	if len(f.served) != 2 {
		t.Fatalf("served %d", len(f.served))
	}
}

func TestSpinTimeoutSleeps(t *testing.T) {
	f := newFixture()
	if err := f.c.ASend(Msg{Op: 1}); err != nil {
		t.Fatal(err)
	}
	f.loop.Run() // drain + spin timeout
	if f.c.Stats().SpinTimeouts != 1 {
		t.Fatalf("spin timeouts = %d", f.c.Stats().SpinTimeouts)
	}
	// Next message needs a fresh wake.
	if err := f.c.ASend(Msg{Op: 2}); err != nil {
		t.Fatal(err)
	}
	f.loop.Run()
	if f.c.Stats().Wakeups != 2 {
		t.Fatalf("wakeups = %d, want 2", f.c.Stats().Wakeups)
	}
}

func TestSyncSendReply(t *testing.T) {
	f := newFixture()
	f.replies[7] = Msg{Data: []byte{0x55}}
	r, err := f.c.Send(Msg{Op: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Data) != 1 || r.Data[0] != 0x55 {
		t.Fatalf("reply %+v", r)
	}
	if r.Seq == 0 {
		t.Fatal("no sequence number assigned")
	}
}

func TestHungDriverInterruptsSyncSend(t *testing.T) {
	f := newFixture()
	f.c.Hung = true
	if _, err := f.c.Send(Msg{Op: 7}); err != ErrHung {
		t.Fatalf("err = %v, want ErrHung", err)
	}
	// Async sends queue but are never served.
	for i := 0; i < 5; i++ {
		if err := f.c.ASend(Msg{Op: 1}); err != nil {
			t.Fatal(err)
		}
	}
	f.loop.Run()
	if len(f.served) != 0 {
		t.Fatal("hung driver served messages")
	}
	if f.c.Pending() != 5 {
		t.Fatalf("pending = %d", f.c.Pending())
	}
}

func TestRingFullBackpressure(t *testing.T) {
	f := newFixture()
	f.c.Hung = true
	var full bool
	for i := 0; i < RingSlots+10; i++ {
		if err := f.c.ASend(Msg{}); err == ErrRingFull {
			full = true
			break
		}
	}
	if !full {
		t.Fatal("ring never filled")
	}
	if f.c.Stats().DroppedFull != 1 {
		t.Fatalf("dropped = %d", f.c.Stats().DroppedFull)
	}
}

func TestDowncallBatchingOneDoorbell(t *testing.T) {
	f := newFixture()
	// Driver queues 3 downcalls during one upcall service.
	f.c.DriverHandler = func(m Msg) (Msg, bool) {
		for i := 0; i < 3; i++ {
			if err := f.c.Down(Msg{Op: 100 + uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return Msg{Seq: m.Seq}, true
	}
	if err := f.c.ASend(Msg{Op: 1}); err != nil {
		t.Fatal(err)
	}
	f.loop.Run()
	if len(f.down) != 3 {
		t.Fatalf("kernel saw %d downcalls", len(f.down))
	}
	if f.c.Stats().Doorbells != 1 {
		t.Fatalf("doorbells = %d, want 1 (batched)", f.c.Stats().Doorbells)
	}
}

func TestExplicitFlush(t *testing.T) {
	f := newFixture()
	if err := f.c.Down(Msg{Op: 9}); err != nil {
		t.Fatal(err)
	}
	if len(f.down) != 0 {
		t.Fatal("downcall delivered without flush")
	}
	f.c.Flush()
	if len(f.down) != 1 {
		t.Fatal("flush did not deliver")
	}
	f.c.Flush() // idempotent when empty
	if f.c.Stats().Doorbells != 1 {
		t.Fatal("empty flush cost a doorbell")
	}
}

func TestSDownInline(t *testing.T) {
	f := newFixture()
	out, err := f.c.SDown(Msg{Op: 42, Args: [6]uint64{7}}, func(m Msg) Msg {
		return Msg{Args: [6]uint64{m.Args[0] * 2}}
	})
	if err != nil || out.Args[0] != 14 {
		t.Fatalf("SDown = %+v, %v", out, err)
	}
}

func TestKillDropsEverything(t *testing.T) {
	f := newFixture()
	if err := f.c.ASend(Msg{}); err != nil {
		t.Fatal(err)
	}
	f.c.Kill()
	f.loop.Run()
	if len(f.served) != 0 {
		t.Fatal("killed channel served messages")
	}
	if err := f.c.ASend(Msg{}); err != ErrDead {
		t.Fatalf("ASend after kill = %v", err)
	}
	if _, err := f.c.Send(Msg{}); err != ErrDead {
		t.Fatalf("Send after kill = %v", err)
	}
	if err := f.c.Down(Msg{}); err != ErrDead {
		t.Fatalf("Down after kill = %v", err)
	}
	if _, err := f.c.SDown(Msg{}, nil); err != ErrDead {
		t.Fatalf("SDown after kill = %v", err)
	}
	if !f.c.Dead() {
		t.Fatal("Dead() false after Kill")
	}
}

func TestSyncSendWhileSleepingChargesWake(t *testing.T) {
	f := newFixture()
	before := f.kern.Busy() + f.drv.Busy()
	if _, err := f.c.Send(Msg{Op: 1}); err != nil {
		t.Fatal(err)
	}
	after := f.kern.Busy() + f.drv.Busy()
	if after-before < WakeCPUKernel+WakeCPUDriver {
		t.Fatalf("sync send from sleep charged only %v", after-before)
	}
}

func TestWakeupCPUAmortizedPerBatch(t *testing.T) {
	// 100 messages in one batch must cost far less than 100 wakeups.
	f := newFixture()
	for i := 0; i < 100; i++ {
		if err := f.c.ASend(Msg{}); err != nil {
			t.Fatal(err)
		}
	}
	f.loop.Run()
	perMsg := (f.kern.Busy() + f.drv.Busy()) / 100
	if perMsg > 1000 {
		t.Fatalf("per-message cost %v ns; batching broken", perMsg)
	}
}

// TestSyncSendAllocatesNothing pins the synchronous upcall (open, stop, the
// supervisor's health ioctl): the reply comes back by value, so a round
// trip through a driver that answers from its own storage allocates
// nothing.
func TestSyncSendAllocatesNothing(t *testing.T) {
	f := newFixture()
	status := []byte("ok")
	f.c.DriverHandler = func(m Msg) (Msg, bool) {
		return Msg{Seq: m.Seq, Args: [6]uint64{0, m.Args[0] + 1}, Data: status}, true
	}
	var arg uint64
	if a := testing.AllocsPerRun(200, func() {
		r, err := f.c.Send(Msg{Op: 7, Args: [6]uint64{arg}})
		if err != nil {
			t.Fatal(err)
		}
		if r.Args[1] != arg+1 || string(r.Data) != "ok" {
			t.Fatalf("reply %+v to arg %d", r, arg)
		}
		arg++
	}); a != 0 {
		t.Fatalf("sync upcall allocates %v times", a)
	}
	if st := f.c.Stats(); st.SyncUpcalls != 201 {
		t.Fatalf("sync upcalls = %d, want 201", st.SyncUpcalls)
	}
}

// TestRoundTripAllocatesNothing pins the single-ring message path: once the
// rings and the loop have warmed up, an upcall that wakes the driver (via
// the deferred doorbell), is drained, answers with a downcall, flushes it
// to the kernel and lets the polling window time out allocates nothing.
func TestRoundTripAllocatesNothing(t *testing.T) {
	f := newFixture()
	delivered := 0
	f.c.DriverHandler = func(m Msg) (Msg, bool) {
		if err := f.c.Down(Msg{Op: 100, Args: m.Args}); err != nil {
			t.Fatal(err)
		}
		return Msg{Seq: m.Seq}, true
	}
	f.c.KernelHandler = func(Msg) { delivered++ }
	if a := testing.AllocsPerRun(200, func() {
		if err := f.c.ASend(Msg{Op: 1}); err != nil {
			t.Fatal(err)
		}
		f.loop.Run()
	}); a != 0 {
		t.Fatalf("round trip allocates %v times", a)
	}
	st := f.c.Stats()
	if delivered != 201 || st.SpinTimeouts != 201 || st.Wakeups != 201 {
		t.Fatalf("delivered %d, stats %+v: not a full round trip per run", delivered, st)
	}
}

// TestReentrantFlushDeliversInOrder: a kernel handler that makes a
// synchronous upcall re-enters the flush (Send flushes the downcalls its
// upcall produced). Those are delivered at once, inside the outer batch —
// the outer batch's remaining downcalls follow them, and none is lost or
// delivered twice.
func TestReentrantFlushDeliversInOrder(t *testing.T) {
	f := newFixture()
	f.c.DriverHandler = func(m Msg) (Msg, bool) {
		if m.Op == 7 { // the kernel's synchronous query
			for i := uint32(0); i < 2; i++ {
				if err := f.c.Down(Msg{Op: 20 + i}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return Msg{Seq: m.Seq}, true
	}
	var got []uint32
	f.c.KernelHandler = func(m Msg) {
		got = append(got, m.Op)
		if m.Op == 10 {
			if _, err := f.c.Send(Msg{Op: 7}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 3; round++ {
		got = got[:0]
		for _, op := range []uint32{10, 11, 12} {
			if err := f.c.Down(Msg{Op: op}); err != nil {
				t.Fatal(err)
			}
		}
		f.c.Flush()
		want := []uint32{10, 20, 21, 11, 12}
		if len(got) != len(want) {
			t.Fatalf("round %d: delivered %v, want %v", round, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: delivered %v, want %v", round, got, want)
			}
		}
	}
	if st := f.c.Stats(); st.Doorbells != 6 {
		t.Fatalf("doorbells = %d, want 2 per round", st.Doorbells)
	}
}

// TestSendersReuseBuffersAtOnce: ASend and Down copy Data into the ring,
// so a sender that rewrites its buffer right after each call does not
// change what the handler sees — for several messages queued at once in
// either direction.
func TestSendersReuseBuffersAtOnce(t *testing.T) {
	f := newFixture()
	buf := make([]byte, 0, 16)
	f.c.DriverHandler = func(m Msg) (Msg, bool) {
		f.served = append(f.served, Msg{Op: m.Op, Data: bytes.Clone(m.Data)})
		for i := 0; i < 2; i++ {
			buf = fmt.Appendf(buf[:0], "down %d.%d", m.Op, i)
			if err := f.c.Down(Msg{Op: 100, Data: buf}); err != nil {
				t.Fatal(err)
			}
			copy(buf, "XXXX")
		}
		return Msg{Seq: m.Seq}, true
	}
	for i := uint32(0); i < 3; i++ {
		buf = fmt.Appendf(buf[:0], "up %d", i)
		if err := f.c.ASend(Msg{Op: i, Data: buf}); err != nil {
			t.Fatal(err)
		}
		copy(buf, "XXXX")
	}
	f.loop.Run()
	if len(f.served) != 3 || len(f.down) != 6 {
		t.Fatalf("served %d upcalls, %d downcalls", len(f.served), len(f.down))
	}
	for i, m := range f.served {
		if want := fmt.Sprintf("up %d", i); string(m.Data) != want {
			t.Fatalf("upcall %d carries %q, want %q", i, m.Data, want)
		}
	}
	for i, m := range f.down {
		if want := fmt.Sprintf("down %d.%d", i/2, i%2); string(m.Data) != want {
			t.Fatalf("downcall %d carries %q, want %q", i, m.Data, want)
		}
	}
}

// TestDataRoundTripAllocatesNothing pins payload-carrying messages on the
// single-ring path: an upcall with Data is drained, its handler answers
// with a Data-carrying downcall that is flushed to the kernel, and each
// sender reuses its buffer at once. Once warm, nothing is allocated.
func TestDataRoundTripAllocatesNothing(t *testing.T) {
	f := newFixture()
	up, down := []byte("upcall payload"), []byte("downcall payload")
	upBuf := make([]byte, len(up))
	var bad int
	f.c.DriverHandler = func(m Msg) (Msg, bool) {
		if !bytes.Equal(m.Data, up) {
			bad++
		}
		if err := f.c.Down(Msg{Op: 100, Data: down}); err != nil {
			t.Fatal(err)
		}
		return Msg{Seq: m.Seq}, true
	}
	delivered := 0
	f.c.KernelHandler = func(m Msg) {
		delivered++
		if !bytes.Equal(m.Data, down) {
			bad++
		}
	}
	if a := testing.AllocsPerRun(200, func() {
		copy(upBuf, up)
		if err := f.c.ASend(Msg{Op: 1, Data: upBuf}); err != nil {
			t.Fatal(err)
		}
		clear(upBuf)
		f.loop.Run()
	}); a != 0 {
		t.Fatalf("a Data round trip allocates %v times", a)
	}
	if delivered != 201 || bad != 0 {
		t.Fatalf("delivered %d, %d payloads wrong", delivered, bad)
	}
}
