package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * Microsecond)
	if c.Now() != 5000 {
		t.Fatalf("clock at %v, want 5000", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestLoopDispatchOrder(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(30, func() { got = append(got, 3) })
	l.At(10, func() { got = append(got, 1) })
	l.At(20, func() { got = append(got, 2) })
	l.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order %v, want [1 2 3]", got)
	}
	if l.Now() != 30 {
		t.Fatalf("clock at %v after run, want 30", l.Now())
	}
}

func TestLoopTieBreakBySchedulingOrder(t *testing.T) {
	l := NewLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(100, func() { got = append(got, i) })
	}
	l.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestLoopEventsScheduledDuringDispatch(t *testing.T) {
	l := NewLoop()
	var fired bool
	l.At(10, func() {
		l.After(5, func() { fired = true })
	})
	l.Run()
	if !fired {
		t.Fatal("nested event did not fire")
	}
	if l.Now() != 15 {
		t.Fatalf("clock at %v, want 15", l.Now())
	}
}

func TestLoopCancel(t *testing.T) {
	l := NewLoop()
	var fired bool
	e := Event{Fn: func() { fired = true }}
	l.Arm(&e, 10)
	if !e.Pending() {
		t.Fatal("armed event not pending")
	}
	l.Cancel(&e)
	l.Cancel(&e) // double cancel is a no-op
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	l.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestLoopCancelMiddleOfHeap(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(10, func() { got = append(got, 1) })
	e := Event{Fn: func() { got = append(got, 2) }}
	l.Arm(&e, 20)
	l.At(30, func() { got = append(got, 3) })
	l.Cancel(&e)
	l.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestLoopRunUntil(t *testing.T) {
	l := NewLoop()
	var count int
	l.At(10, func() { count++ })
	l.At(20, func() { count++ })
	l.At(30, func() { count++ })
	l.RunUntil(20)
	if count != 2 {
		t.Fatalf("fired %d events by t=20, want 2", count)
	}
	if l.Now() != 20 {
		t.Fatalf("clock at %v, want 20", l.Now())
	}
	if l.Pending() != 1 {
		t.Fatalf("%d pending, want 1", l.Pending())
	}
}

func TestLoopRunUntilAdvancesIdleClock(t *testing.T) {
	l := NewLoop()
	l.RunUntil(500)
	if l.Now() != 500 {
		t.Fatalf("idle RunUntil left clock at %v, want 500", l.Now())
	}
}

func TestLoopStop(t *testing.T) {
	l := NewLoop()
	var count int
	l.At(10, func() { count++; l.Stop() })
	l.At(20, func() { count++ })
	l.Run()
	if count != 1 {
		t.Fatalf("fired %d events, want 1 (stopped)", count)
	}
}

func TestLoopPastSchedulingPanics(t *testing.T) {
	l := NewLoop()
	l.At(10, func() {})
	l.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	l.At(5, func() {})
}

func TestLoopDispatchedCounter(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 7; i++ {
		l.At(Time(i), func() {})
	}
	l.Run()
	if l.Dispatched() != 7 {
		t.Fatalf("Dispatched() = %d, want 7", l.Dispatched())
	}
}

// Property: for any set of non-negative delays, the loop dispatches events in
// non-decreasing timestamp order and ends with the clock at the max.
func TestLoopOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		l := NewLoop()
		var last Time = -1
		ok := true
		var max Time
		for _, d := range delays {
			at := Time(d)
			if at > max {
				max = at
			}
			l.At(at, func() {
				if l.Now() < last {
					ok = false
				}
				last = l.Now()
			})
		}
		l.Run()
		if len(delays) > 0 && l.Now() != max {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoopOwnedEventRearm(t *testing.T) {
	l := NewLoop()
	var fires []Time
	var e Event
	e.Fn = func() {
		fires = append(fires, l.Now())
		if len(fires) < 3 {
			l.ArmAfter(&e, 10) // re-arming from its own callback
		}
	}
	l.Arm(&e, 5)
	l.Run()
	if len(fires) != 3 || fires[0] != 5 || fires[1] != 15 || fires[2] != 25 {
		t.Fatalf("owned event fired at %v, want [5 15 25]", fires)
	}
	if e.Pending() {
		t.Fatal("fired event still pending")
	}
	if e.Fn == nil {
		t.Fatal("firing cleared an owned event's Fn")
	}
}

func TestLoopArmPendingPanics(t *testing.T) {
	l := NewLoop()
	e := Event{Fn: func() {}}
	l.Arm(&e, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("arming a pending event did not panic")
		}
	}()
	l.Arm(&e, 20)
}

// TestLoopAtAndArmTieOrder: fire-and-forget and owned events scheduled for
// one instant fire in scheduling order, including an owned event re-armed
// after a pooled event was recycled.
func TestLoopAtAndArmTieOrder(t *testing.T) {
	l := NewLoop()
	var got []string
	a := Event{Fn: func() { got = append(got, "armA") }}
	b := Event{Fn: func() { got = append(got, "armB") }}
	l.At(100, func() { got = append(got, "at1") })
	l.Arm(&a, 100)
	l.At(100, func() { got = append(got, "at2") })
	l.Arm(&b, 100)
	l.Cancel(&a)
	l.Arm(&a, 100) // re-armed: its new seq puts it after armB
	l.At(100, func() { got = append(got, "at3") })
	l.Run()
	want := []string{"at1", "at2", "armB", "armA", "at3"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestLoopAtFromCallbackNoStaleFn: a callback that schedules the next At
// reuses its own recycled Event; each event must run exactly its own Fn.
func TestLoopAtFromCallbackNoStaleFn(t *testing.T) {
	l := NewLoop()
	var got []int
	var chain func(i int) func()
	chain = func(i int) func() {
		return func() {
			got = append(got, i)
			if i < 5 {
				l.After(0, chain(i+1))
				l.After(1, func() { got = append(got, 100+i) })
			}
		}
	}
	l.At(0, chain(0))
	l.Run()
	want := []int{0, 1, 2, 3, 4, 5, 100, 101, 102, 103, 104}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestLoopAtStepAllocatesNothing pins the fire-and-forget path: once the
// free list and heap have warmed up, At followed by Step allocates nothing.
func TestLoopAtStepAllocatesNothing(t *testing.T) {
	l := NewLoop()
	n := 0
	fn := func() { n++ }
	if a := testing.AllocsPerRun(1000, func() {
		l.At(l.Now()+1, fn)
		l.At(l.Now()+2, fn)
		l.Step()
		l.Step()
	}); a != 0 {
		t.Fatalf("At+Step allocates %v times per run", a)
	}
	if n == 0 {
		t.Fatal("no event fired")
	}
}

// TestLoopArmCancelAllocatesNothing pins the owned-timer path: an
// Arm/Cancel/re-Arm/fire cycle allocates nothing.
func TestLoopArmCancelAllocatesNothing(t *testing.T) {
	l := NewLoop()
	n := 0
	e := Event{Fn: func() { n++ }}
	if a := testing.AllocsPerRun(1000, func() {
		l.ArmAfter(&e, 5)
		l.Cancel(&e)
		l.ArmAfter(&e, 7)
		l.Run()
	}); a != 0 {
		t.Fatalf("Arm/Cancel/re-Arm allocates %v times per run", a)
	}
	if n == 0 {
		t.Fatal("re-armed event never fired")
	}
}
