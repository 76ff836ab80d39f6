package blockdev

import (
	"errors"
	"fmt"
	"testing"

	"sud/internal/drivers/api"
	"sud/internal/sim"
)

// fakeDrv is a scriptable block driver: it queues submissions and lets the
// test complete them by hand through the BlockKernel half.
type fakeDrv struct {
	queues  int
	limit   int // per-queue accept limit before reporting full
	pending [][]api.BlockRequest
	opened  bool
}

func newFake(queues, limit int) *fakeDrv {
	return &fakeDrv{queues: queues, limit: limit, pending: make([][]api.BlockRequest, queues)}
}

func (f *fakeDrv) Open() error { f.opened = true; return nil }
func (f *fakeDrv) Stop() error { f.opened = false; return nil }
func (f *fakeDrv) Queues() int { return f.queues }
func (f *fakeDrv) Submit(q int, req api.BlockRequest) error {
	if len(f.pending[q]) >= f.limit {
		return fmt.Errorf("full")
	}
	req.Data = append([]byte(nil), req.Data...) // Submit must not retain the host's buffer
	f.pending[q] = append(f.pending[q], req)
	return nil
}

func newMgr() *Manager {
	loop := sim.NewLoop()
	stats := sim.NewCPUStats(2)
	return New(loop, stats.Account("kernel"))
}

func geom() api.BlockGeometry { return api.BlockGeometry{BlockSize: 512, Blocks: 100} }

func TestRegisterAndLookup(t *testing.T) {
	m := newMgr()
	f := newFake(2, 4)
	d, err := m.Register("d0", geom(), f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register("d0", geom(), f); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("duplicate register: %v", err)
	}
	if d.NumQueues() != 2 {
		t.Fatalf("queues = %d", d.NumQueues())
	}
	if err := d.Up(); err != nil || !f.opened {
		t.Fatalf("up: %v opened=%v", err, f.opened)
	}
}

func TestCompleteMatchesTag(t *testing.T) {
	m := newMgr()
	f := newFake(1, 8)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()

	var got []byte
	var gotErr error
	if err := d.ReadAtQ(5, 0, func(b []byte, err error) { got, gotErr = append([]byte(nil), b...), err }); err != nil {
		t.Fatal(err)
	}
	req := f.pending[0][0]
	if req.Write || req.LBA != 5 {
		t.Fatalf("driver saw %+v", req)
	}
	// A completion with a bogus tag is dropped and counted, never
	// delivered to a caller.
	d.Complete(0, req.Tag+999, nil, make([]byte, 512))
	if d.BadCompletions != 1 || got != nil {
		t.Fatalf("bogus tag: bad=%d got=%v", d.BadCompletions, got)
	}
	payload := make([]byte, 512)
	payload[0] = 0x42
	d.Complete(0, req.Tag, nil, payload)
	if gotErr != nil || got[0] != 0x42 {
		t.Fatalf("completion: %v %v", got, gotErr)
	}
	// Replaying the same tag is dropped too.
	d.Complete(0, req.Tag, nil, payload)
	if d.BadCompletions != 2 {
		t.Fatalf("replayed tag accepted")
	}
}

func TestShortReadSurfacesAsError(t *testing.T) {
	m := newMgr()
	f := newFake(1, 8)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()
	var gotErr error
	_ = d.ReadAtQ(1, 0, func(_ []byte, err error) { gotErr = err })
	d.Complete(0, f.pending[0][0].Tag, nil, make([]byte, 17))
	if gotErr == nil {
		t.Fatal("short read delivered as success")
	}
}

func TestStallParksAndWakeDrains(t *testing.T) {
	m := newMgr()
	f := newFake(2, 2)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()

	for i := 0; i < 5; i++ {
		if err := d.ReadAtQ(uint64(i), 0, func([]byte, error) {}); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.pending[0]) != 2 || d.Queue(0).Waiting() != 3 || !d.Queue(0).Stalled() {
		t.Fatalf("pending=%d waiting=%d stalled=%v",
			len(f.pending[0]), d.Queue(0).Waiting(), d.Queue(0).Stalled())
	}
	// Queue 1 is unaffected by queue 0's stall.
	if err := d.ReadAtQ(9, 1, func([]byte, error) {}); err != nil || len(f.pending[1]) != 1 {
		t.Fatalf("sibling queue stalled: %v", err)
	}
	// Driver completes one and wakes: exactly one parked request drains
	// (the hardware queue re-fills to its limit).
	req := f.pending[0][0]
	f.pending[0] = f.pending[0][1:]
	d.Complete(0, req.Tag, nil, make([]byte, 512))
	woke := false
	d.Queue(0).OnWake = func() { woke = true }
	d.WakeQueueQ(0)
	if len(f.pending[0]) != 2 || d.Queue(0).Waiting() != 2 {
		t.Fatalf("after wake: pending=%d waiting=%d", len(f.pending[0]), d.Queue(0).Waiting())
	}
	// Still stalled (driver full again): the wake hook only fires once the
	// software queue fully drains.
	if woke {
		t.Fatal("OnWake fired while still stalled")
	}
}

func TestCongestionBounded(t *testing.T) {
	m := newMgr()
	f := newFake(1, 1)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()
	var err error
	for i := 0; i < MaxQueuedPerQueue+10; i++ {
		err = d.ReadAtQ(1, 0, func([]byte, error) {})
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrCongested) {
		t.Fatalf("unbounded parking: %v", err)
	}
}

func TestUnregisterFailsInflight(t *testing.T) {
	m := newMgr()
	f := newFake(1, 8)
	d, _ := m.Register("d0", geom(), f)
	_ = d.Up()
	var gotErr error
	_ = d.ReadAtQ(1, 0, func(_ []byte, err error) { gotErr = err })
	m.Unregister("d0")
	if !errors.Is(gotErr, ErrDown) {
		t.Fatalf("in-flight request not failed on unregister: %v", gotErr)
	}
	if _, err := m.Dev("d0"); err == nil {
		t.Fatal("device still registered")
	}
}

func TestWriteValidatesSize(t *testing.T) {
	m := newMgr()
	d, _ := m.Register("d0", geom(), newFake(1, 8))
	_ = d.Up()
	if err := d.WriteAt(1, make([]byte, 513), func(error) {}); !errors.Is(err, ErrBadSize) {
		t.Fatalf("oversize write: %v", err)
	}
	if err := d.WriteAt(200, make([]byte, 512), func(error) {}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range write: %v", err)
	}
}

func TestQueueForLBASpreads(t *testing.T) {
	counts := make([]int, 4)
	for lba := uint64(0); lba < 1000; lba++ {
		counts[QueueForLBA(lba, 4)]++
	}
	for q, n := range counts {
		if n < 100 {
			t.Fatalf("queue %d starved: %d/1000", q, n)
		}
	}
}
