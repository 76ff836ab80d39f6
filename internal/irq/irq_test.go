package irq

import (
	"testing"

	"sud/internal/pci"
	"sud/internal/sim"
)

var src = pci.MakeBDF(1, 0, 0)
var other = pci.MakeBDF(1, 1, 0)

func setup() (*sim.Loop, *Controller) {
	l := sim.NewLoop()
	return l, NewController(l)
}

func TestMSIDeliversVector(t *testing.T) {
	l, c := setup()
	var got []Vector
	if err := c.Register(0x41, func(v Vector) { got = append(got, v) }); err != nil {
		t.Fatal(err)
	}
	c.MSIWrite(src, 0xFEE00000, []byte{0x41, 0, 0, 0})
	if len(got) != 0 {
		t.Fatal("interrupt delivered synchronously, want delivery latency")
	}
	l.Run()
	if len(got) != 1 || got[0] != 0x41 {
		t.Fatalf("delivered %v", got)
	}
	if c.Count(0x41) != 1 || c.TotalDelivered() != 1 {
		t.Fatal("counters wrong")
	}
}

func TestMSIDeliveryLatency(t *testing.T) {
	l, c := setup()
	var at sim.Time
	must(t, c.Register(0x30, func(Vector) { at = l.Now() }))
	c.MSIWrite(src, 0xFEE00000, []byte{0x30})
	l.Run()
	if at != c.DeliveryLatency {
		t.Fatalf("delivered at %v, want %v", at, c.DeliveryLatency)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnhandledVectorIsSpurious(t *testing.T) {
	l, c := setup()
	c.MSIWrite(src, 0xFEE00000, []byte{0x55})
	l.Run()
	if c.Spurious() != 1 {
		t.Fatalf("spurious = %d, want 1", c.Spurious())
	}
	c.MSIWrite(src, 0xFEE00000, nil)
	if c.Spurious() != 2 {
		t.Fatal("empty MSI payload not counted as spurious")
	}
}

func TestReservedVectorRegistration(t *testing.T) {
	_, c := setup()
	if err := c.Register(0x08, func(Vector) {}); err == nil {
		t.Fatal("registered handler on exception vector")
	}
}

func TestRemapTableValidatesSource(t *testing.T) {
	l, c := setup()
	c.Remap = &RemapTable{}
	c.Remap.Set(5, IRTE{Valid: true, Source: src, Vector: 0x60})
	var got int
	must(t, c.Register(0x60, func(Vector) { got++ }))

	// Correct source: delivered.
	c.MSIWrite(src, 0xFEE00000, []byte{5})
	// Spoofed source: blocked. This is the property that closes the
	// stray-DMA-to-MSI-address attack (§3.2.2).
	c.MSIWrite(other, 0xFEE00000, []byte{5})
	// Invalid entry: blocked.
	c.MSIWrite(src, 0xFEE00000, []byte{6})
	l.Run()
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if c.Remap.Blocked != 2 {
		t.Fatalf("blocked = %d, want 2", c.Remap.Blocked)
	}
}

func TestRemapTableMasking(t *testing.T) {
	l, c := setup()
	c.Remap = &RemapTable{}
	c.Remap.Set(7, IRTE{Valid: true, Source: src, Vector: 0x61})
	var got int
	must(t, c.Register(0x61, func(Vector) { got++ }))
	c.Remap.SetMasked(7, true)
	c.MSIWrite(src, 0xFEE00000, []byte{7})
	l.Run()
	if got != 0 {
		t.Fatal("masked IRTE delivered")
	}
	c.Remap.SetMasked(7, false)
	c.MSIWrite(src, 0xFEE00000, []byte{7})
	l.Run()
	if got != 1 {
		t.Fatal("unmasked IRTE did not deliver")
	}
}

func TestWithoutRemapAnySourceRaisesAnyVector(t *testing.T) {
	// The vulnerability on the paper's test machine: no remap table, so
	// a stray DMA write to the MSI window raises an arbitrary vector.
	l, c := setup()
	var got int
	must(t, c.Register(0x20, func(Vector) { got++ }))
	c.MSIWrite(other, 0xFEE00000, []byte{0x20})
	l.Run()
	if got != 1 {
		t.Fatal("raw MSI write did not deliver without remapping")
	}
}

func TestStormDetection(t *testing.T) {
	l, c := setup()
	must(t, c.Register(0x42, func(Vector) {}))
	var stormVec Vector
	var stormRate int
	c.OnStorm = func(v Vector, rate int) { stormVec, stormRate = v, rate }
	for i := 0; i < c.StormThreshold; i++ {
		c.MSIWrite(src, 0xFEE00000, []byte{0x42})
	}
	if stormVec != 0x42 || stormRate < c.StormThreshold {
		t.Fatalf("storm not detected: vec=%#x rate=%d", stormVec, stormRate)
	}
	// Signalled only once per window.
	stormRate = 0
	c.MSIWrite(src, 0xFEE00000, []byte{0x42})
	if stormRate != 0 {
		t.Fatal("storm signalled twice in one window")
	}
	l.Run()
}

func TestStormWindowResets(t *testing.T) {
	l, c := setup()
	must(t, c.Register(0x42, func(Vector) {}))
	storms := 0
	c.OnStorm = func(Vector, int) { storms++ }
	// Slow interrupts spread over many windows: no storm.
	for i := 0; i < 3*c.StormThreshold; i++ {
		c.MSIWrite(src, 0xFEE00000, []byte{0x42})
		l.RunFor(c.StormWindow / sim.Duration(c.StormThreshold) * 2)
	}
	if storms != 0 {
		t.Fatalf("slow interrupt rate flagged as storm %d times", storms)
	}
}

func TestInjectBypassesRemap(t *testing.T) {
	l, c := setup()
	c.Remap = &RemapTable{} // empty: would block everything
	var got int
	must(t, c.Register(0x44, func(Vector) { got++ }))
	c.Inject(0x44)
	l.Run()
	if got != 1 {
		t.Fatal("Inject did not deliver")
	}
}

func TestVectorAllocator(t *testing.T) {
	a := NewVectorAllocator()
	v1, err := a.Alloc()
	must(t, err)
	v2, err := a.Alloc()
	must(t, err)
	if v1 != FirstUsable || v2 != FirstUsable+1 {
		t.Fatalf("allocated %#x, %#x", v1, v2)
	}
	for i := 0; i < 1000; i++ {
		if _, err := a.Alloc(); err != nil {
			return // exhaustion reported, good
		}
	}
	t.Fatal("allocator never exhausted")
}

func TestVectorAllocatorFreeReuses(t *testing.T) {
	a := NewVectorAllocator()
	// Alloc-free cycles far past the 224 usable vectors: a freed vector is
	// handed out again, so the high-water mark stays at one.
	for i := 0; i < 1000; i++ {
		v, err := a.Alloc()
		must(t, err)
		if v != FirstUsable {
			t.Fatalf("cycle %d: allocated %#x, want %#x", i, v, FirstUsable)
		}
		a.Free(v)
	}
	if a.HighWater() != 1 {
		t.Fatalf("high water %d, want 1", a.HighWater())
	}
	// Exhaust the rest; a freed vector still comes back.
	var last Vector
	for {
		v, err := a.Alloc()
		if err != nil {
			break
		}
		last = v
	}
	if a.HighWater() != 256-int(FirstUsable) || last != 0xFF {
		t.Fatalf("high water %d, last %#x after exhaustion", a.HighWater(), last)
	}
	a.Free(0x42)
	if v, err := a.Alloc(); err != nil || v != 0x42 {
		t.Fatalf("after free: %#x, %v", v, err)
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("one freed vector handed out twice")
	}
}

// TestDeliveryAllocatesNothingOnceBound: a vector's dispatch is bound on its
// first delivery, so every later MSI through to the handler allocates
// nothing.
func TestDeliveryAllocatesNothingOnceBound(t *testing.T) {
	l, c := setup()
	n := 0
	must(t, c.Register(0x41, func(Vector) { n++ }))
	msg := []byte{0x41, 0, 0, 0}
	deliver := func() {
		c.MSIWrite(src, 0xFEE00000, msg)
		l.Run()
	}
	deliver()
	if allocs := testing.AllocsPerRun(100, deliver); allocs != 0 {
		t.Fatalf("MSI delivery allocates %.0f times, want 0", allocs)
	}
	if n != 102 {
		t.Fatalf("handler ran %d times, want 102", n)
	}
}
