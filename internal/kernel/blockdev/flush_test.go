package blockdev

import (
	"errors"
	"testing"

	"sud/internal/kernel/shadow"
)

// completeOne completes the oldest pending request on queue q of the fake
// driver; it reports false when the queue is empty. Completing may cause
// the block core to dispatch follow-on work into f.pending (a released
// barrier, a drained parked request) — that work is left pending, so tests
// can observe intermediate states.
func completeOne(d *Dev, f *fakeDrv, q int) bool {
	if len(f.pending[q]) == 0 {
		return false
	}
	req := f.pending[q][0]
	f.pending[q] = f.pending[q][1:]
	var data []byte
	if !req.Write && !req.Flush {
		data = make([]byte, d.Geom.BlockSize)
	}
	d.Complete(q, req.Tag, nil, data)
	return true
}

// completeAll keeps completing until every queue is empty.
func completeAll(d *Dev, f *fakeDrv) {
	for again := true; again; {
		again = false
		for q := range f.pending {
			if completeOne(d, f, q) {
				again = true
			}
		}
	}
}

func TestFlushWaitsForInflightThenDispatches(t *testing.T) {
	m := newMgr()
	f := newFake(2, 8)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()

	// Two writes in flight on different queues.
	buf := make([]byte, 512)
	if err := d.WriteAtQ(1, 0, buf, func(error) {}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAtQ(2, 1, buf, func(error) {}); err != nil {
		t.Fatal(err)
	}

	flushed := false
	if err := d.Flush(func(err error) {
		if err != nil {
			t.Fatalf("flush: %v", err)
		}
		flushed = true
	}); err != nil {
		t.Fatal(err)
	}
	// The barrier must not reach the driver while the writes are in
	// flight on ANY queue.
	for q := range f.pending {
		for _, req := range f.pending[q] {
			if req.Flush {
				t.Fatal("flush dispatched with prior writes outstanding")
			}
		}
	}
	// New submissions park behind the barrier.
	if err := d.ReadAtQ(3, 0, func([]byte, error) {}); err != nil {
		t.Fatal(err)
	}
	if got := len(f.pending[0]); got != 1 {
		t.Fatalf("submission crossed an active barrier (queue 0 holds %d)", got)
	}

	// Completing the writes releases the flush to the driver...
	completeOne(d, f, 0)
	completeOne(d, f, 1)
	if len(f.pending[0]) != 1 || !f.pending[0][0].Flush {
		t.Fatalf("flush not dispatched after drain: %+v", f.pending[0])
	}
	if flushed {
		t.Fatal("flush completed before the driver acked it")
	}
	// ...and the flush's completion finishes the barrier and drains the
	// parked read.
	completeOne(d, f, 0)
	if !flushed {
		t.Fatal("flush callback never ran")
	}
	if d.Flushes != 1 {
		t.Fatalf("Flushes = %d", d.Flushes)
	}
	if len(f.pending[0]) != 1 || f.pending[0][0].Write || f.pending[0][0].Flush {
		t.Fatalf("parked read not released after barrier: %+v", f.pending[0])
	}
}

func TestFlushesQueueInOrder(t *testing.T) {
	m := newMgr()
	f := newFake(1, 8)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()

	var order []int
	for i := 0; i < 3; i++ {
		i := i
		if err := d.Flush(func(err error) {
			if err != nil {
				t.Fatalf("flush %d: %v", i, err)
			}
			order = append(order, i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for rounds := 0; rounds < 10 && len(order) < 3; rounds++ {
		completeAll(d, f)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("barrier order = %v", order)
	}
	if d.Flushes != 3 {
		t.Fatalf("Flushes = %d", d.Flushes)
	}
}

func TestWriteAtFUACarriesFlag(t *testing.T) {
	m := newMgr()
	f := newFake(1, 8)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()

	done := false
	if err := d.WriteAtFUA(9, make([]byte, 512), func(err error) {
		if err != nil {
			t.Fatalf("fua write: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if len(f.pending[0]) != 1 || !f.pending[0][0].FUA || !f.pending[0][0].Write {
		t.Fatalf("driver saw %+v", f.pending[0])
	}
	if d.FUAWrites != 1 {
		t.Fatalf("FUAWrites = %d", d.FUAWrites)
	}
	completeAll(d, f)
	if !done {
		t.Fatal("FUA write never completed")
	}
}

func TestFlushRefusedByDriverRetriesOnWake(t *testing.T) {
	m := newMgr()
	f := newFake(1, 0) // driver refuses everything
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()

	flushed := false
	if err := d.Flush(func(err error) { flushed = err == nil }); err != nil {
		t.Fatal(err)
	}
	if len(f.pending[0]) != 0 {
		t.Fatal("refused flush recorded as dispatched")
	}
	f.limit = 8
	d.WakeQueueQ(0)
	if len(f.pending[0]) != 1 || !f.pending[0][0].Flush {
		t.Fatalf("flush not retried on wake: %+v", f.pending[0])
	}
	completeAll(d, f)
	if !flushed {
		t.Fatal("flush never completed")
	}
}

func TestFlushOnDownDeviceFails(t *testing.T) {
	m := newMgr()
	f := newFake(1, 8)
	d, _ := m.Register("d0", geom(), f)
	if err := d.Flush(func(error) {}); !errors.Is(err, ErrDown) {
		t.Fatalf("flush on down device: %v", err)
	}
}

func TestUnregisterFailsBarriers(t *testing.T) {
	m := newMgr()
	f := newFake(1, 8)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()

	// One dispatched barrier, one queued behind it, one parked write.
	var errs []error
	_ = d.Flush(func(err error) { errs = append(errs, err) })
	_ = d.Flush(func(err error) { errs = append(errs, err) })
	var werr error
	wran := false
	_ = d.WriteAtQ(1, 0, make([]byte, 512), func(err error) { werr, wran = err, true })

	m.Unregister("d0")
	if len(errs) != 2 || !errors.Is(errs[0], ErrDown) || !errors.Is(errs[1], ErrDown) {
		t.Fatalf("barrier errors = %v", errs)
	}
	if !wran || !errors.Is(werr, ErrDown) {
		t.Fatalf("parked write: ran=%v err=%v", wran, werr)
	}
}

func TestBarrierSurvivesRecovery(t *testing.T) {
	// A driver death with a barrier waiting on in-flight writes: the
	// writes replay into the restarted driver, and the flush dispatches
	// only after the replays complete — kill plus respawn cannot reorder
	// acked-durable writes around the barrier.
	m := newMgr()
	f := newFake(1, 8)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()
	d.AttachShadow(shadow.NewBlock(d.Geom))

	if err := d.WriteAtQ(1, 0, make([]byte, 512), func(error) {}); err != nil {
		t.Fatal(err)
	}
	flushed := false
	if err := d.Flush(func(err error) { flushed = err == nil }); err != nil {
		t.Fatal(err)
	}

	if _, err := m.BeginRecovery("d0"); err != nil {
		t.Fatal(err)
	}
	f2 := newFake(1, 8)
	d2, err := m.Register("d0", geom(), f2)
	if err != nil || d2 != d {
		t.Fatalf("adoption failed: %v", err)
	}
	if _, err := d.CompleteRecovery(); err != nil {
		t.Fatal(err)
	}
	// The replayed write must arrive before any flush.
	if len(f2.pending[0]) != 1 || f2.pending[0][0].Flush {
		t.Fatalf("replay schedule wrong: %+v", f2.pending[0])
	}
	completeOne(d, f2, 0) // write completes → flush dispatches
	if len(f2.pending[0]) != 1 || !f2.pending[0][0].Flush {
		t.Fatalf("flush not dispatched after replay: %+v", f2.pending[0])
	}
	completeOne(d, f2, 0)
	if !flushed {
		t.Fatal("barrier never completed across recovery")
	}
}

// TestKillMidBarrierRunsEachFlushOnce: the driver dies while one barrier is
// dispatched and a second is queued behind it. The dispatched flush replays
// into the restarted driver, and every Flush callback runs exactly once, in
// order, a flush issued from inside the first callback included: it takes
// the first barrier's recycled op while the second barrier is still queued.
func TestKillMidBarrierRunsEachFlushOnce(t *testing.T) {
	m := newMgr()
	f := newFake(1, 8)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()
	d.AttachShadow(shadow.NewBlock(d.Geom))

	var order []int
	var flush func(i int)
	flush = func(i int) {
		if err := d.Flush(func(err error) {
			if err != nil {
				t.Errorf("flush %d: %v", i, err)
			}
			order = append(order, i)
			if i == 0 {
				flush(2)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	flush(0)
	flush(1)
	if len(f.pending[0]) != 1 || !f.pending[0][0].Flush {
		t.Fatalf("first barrier not dispatched: %+v", f.pending[0])
	}

	if _, err := m.BeginRecovery("d0"); err != nil {
		t.Fatal(err)
	}
	f2 := newFake(1, 8)
	if d2, err := m.Register("d0", geom(), f2); err != nil || d2 != d {
		t.Fatalf("adoption failed: %v", err)
	}
	if _, err := d.CompleteRecovery(); err != nil {
		t.Fatal(err)
	}
	if len(f2.pending[0]) != 1 || !f2.pending[0][0].Flush {
		t.Fatalf("replay schedule wrong: %+v", f2.pending[0])
	}
	for rounds := 0; rounds < 10 && len(order) < 3; rounds++ {
		completeAll(d, f2)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("barrier callbacks ran %v, want [0 1 2]", order)
	}
	if d.Flushes != 3 || d.InFlight() != 0 {
		t.Fatalf("Flushes = %d with %d in flight, want 3 and 0", d.Flushes, d.InFlight())
	}
}

// TestFlushCompleteAllocatesNothing pins barrier recycling: once one flush
// has completed, Flush → dispatch → Complete allocates nothing.
func TestFlushCompleteAllocatesNothing(t *testing.T) {
	m := newMgr()
	f := &tagDrv{}
	d, err := m.Register("d0", geom(), f)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Up(); err != nil {
		t.Fatal(err)
	}
	flushed := 0
	cb := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		flushed++
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Flush(cb); err != nil {
			t.Fatal(err)
		}
		d.Complete(0, f.tag, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("Flush+Complete allocates %.0f times per barrier, want 0", allocs)
	}
	if flushed != 201 || d.Flushes != 201 {
		t.Fatalf("%d callbacks and %d barriers completed, want 201", flushed, d.Flushes)
	}
}
