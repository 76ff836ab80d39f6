package blockdev

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sud/internal/drivers/api"
	"sud/internal/kernel/shadow"
	"sud/internal/sim"
)

// tagDrv accepts every request and remembers only the last tag, so an
// allocation count measures the block core alone.
type tagDrv struct{ tag uint64 }

func (f *tagDrv) Open() error { return nil }
func (f *tagDrv) Stop() error { return nil }
func (f *tagDrv) Queues() int { return 1 }
func (f *tagDrv) Submit(q int, req api.BlockRequest) error {
	f.tag = req.Tag
	return nil
}

// TestWriteCompleteAllocatesNothing pins the steady-state write path: once a
// completed write has handed its payload buffer back, WriteAt → Complete on
// a trusted driver allocates nothing.
func TestWriteCompleteAllocatesNothing(t *testing.T) {
	m := newMgr()
	f := &tagDrv{}
	d, err := m.Register("d0", geom(), f)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Up(); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, d.Geom.BlockSize)
	var acked int
	cb := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		acked++
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.WriteAt(7, payload, cb); err != nil {
			t.Fatal(err)
		}
		d.Complete(0, f.tag, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("WriteAt+Complete allocates %.0f times per write, want 0", allocs)
	}
	if acked != 201 || len(d.free) != 1 {
		t.Fatalf("acked %d writes with %d free buffers, want 201 and 1", acked, len(d.free))
	}
}

// loopDrv completes every request a few microseconds after Submit, unless
// its incarnation has died. It copies each write payload at Submit, as the
// ownership contract requires, and checks every replay against the payload
// the tag carried when first submitted.
type loopDrv struct {
	loop *sim.Loop
	dev  *Dev
	dead bool
	n    int

	first    map[uint64][]byte // tag → payload at first submission (shared by incarnations)
	bufs     map[*byte]bool    // distinct block-core buffers seen
	replayed int
	bad      []uint64 // tags whose replayed payload differs
}

func (f *loopDrv) Open() error { return nil }
func (f *loopDrv) Stop() error { return nil }
func (f *loopDrv) Queues() int { return 2 }
func (f *loopDrv) Submit(q int, req api.BlockRequest) error {
	if req.Write {
		f.bufs[&req.Data[0]] = true
		if orig, ok := f.first[req.Tag]; ok {
			f.replayed++
			if !bytes.Equal(orig, req.Data) {
				f.bad = append(f.bad, req.Tag)
			}
		} else {
			f.first[req.Tag] = append([]byte(nil), req.Data...)
		}
	}
	f.n++
	tag := req.Tag
	f.loop.After(sim.Duration(1+f.n%7)*sim.Microsecond, func() {
		if !f.dead {
			f.dev.Complete(q, tag, nil, nil)
		}
	})
	return nil
}

// TestReplayPayloadsSurviveRecycling kills the driver in the middle of a
// write-heavy run, after the block core has recycled its payload buffers
// many times over, and checks that every replayed write carries exactly the
// bytes its caller wrote — though each caller scribbles over its one buffer
// as soon as WriteAt returns.
func TestReplayPayloadsSurviveRecycling(t *testing.T) {
	m := newMgr()
	first := map[uint64][]byte{}
	bufs := map[*byte]bool{}
	f1 := &loopDrv{loop: m.Loop, first: first, bufs: bufs}
	d, err := m.Register("d0", geom(), f1)
	if err != nil {
		t.Fatal(err)
	}
	f1.dev = d
	d.AttachShadow(shadow.NewBlock(d.Geom))
	if err := d.Up(); err != nil {
		t.Fatal(err)
	}

	// Eight closed-loop writers, one write outstanding each. A writer
	// stamps its job and sequence number over its own single buffer.
	const jobs = 8
	writes, acked := 0, 0
	stop := false
	var issue func(job int, buf []byte)
	issue = func(job int, buf []byte) {
		if stop {
			return
		}
		writes++
		binary.LittleEndian.PutUint64(buf, uint64(job)<<32|uint64(writes))
		for i := 8; i < len(buf); i++ {
			buf[i] = byte(writes + i)
		}
		lba := uint64(job*10 + writes%10)
		if err := d.WriteAt(lba, buf, func(err error) {
			if err != nil {
				t.Errorf("job %d: %v", job, err)
			}
			acked++
			issue(job, buf)
		}); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xEE // the block core owns its own copy now
		}
	}
	for j := 0; j < jobs; j++ {
		issue(j, make([]byte, d.Geom.BlockSize))
	}
	m.Loop.RunFor(500 * sim.Microsecond)
	if writes < 500 {
		t.Fatalf("only %d writes before the kill", writes)
	}

	// kill -9: the dead incarnation's completions never arrive.
	f1.dead = true
	if _, err := m.BeginRecovery("d0"); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(20 * sim.Microsecond)
	f2 := &loopDrv{loop: m.Loop, dev: d, first: first, bufs: bufs}
	if _, err := m.Register("d0", geom(), f2); err != nil {
		t.Fatal(err)
	}
	n, err := d.CompleteRecovery()
	if err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(200 * sim.Microsecond)
	stop = true
	m.Loop.Run()

	if n != jobs || f2.replayed != jobs {
		t.Fatalf("scheduled %d and replayed %d writes, want %d", n, f2.replayed, jobs)
	}
	if len(f2.bad) != 0 {
		t.Fatalf("replayed payloads differ from the originals for tags %v", f2.bad)
	}
	if acked != writes || d.InFlight() != 0 {
		t.Fatalf("acked %d of %d writes, %d in flight", acked, writes, d.InFlight())
	}
	// Recycling really happened: a handful of buffers carried every write.
	if len(bufs) > 2*jobs {
		t.Fatalf("%d distinct payload buffers for %d writes", len(bufs), writes)
	}
}

// TestEarlyCompletionDuringReplayKeepsPayload: a restarted driver that
// completes a logged tag before the replay has re-given it must not free
// that tag's payload, because the replay still submits it. A write issued
// meanwhile must not land in the buffer the replay will read.
func TestEarlyCompletionDuringReplayKeepsPayload(t *testing.T) {
	m := newMgr()
	d, _ := startRecoverable(t, m, 1, 16)
	want := map[uint64][]byte{}
	for lba := uint64(1); lba <= 4; lba++ {
		p := bytes.Repeat([]byte{byte(lba)}, d.Geom.BlockSize)
		want[lba] = p
		if err := d.WriteAtQ(lba, 0, p, func(error) {}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.BeginRecovery("d0"); err != nil {
		t.Fatal(err)
	}
	f2 := newFake(1, 1) // takes one replay, then reports full
	if _, err := m.Register("d0", geom(), f2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CompleteRecovery(); err != nil {
		t.Fatal(err)
	}
	if !d.replayPending() {
		t.Fatal("replay finished while the driver was full")
	}
	// The driver completes the last logged write (tag 3), which it was
	// never re-given, then a new write arrives.
	d.Complete(0, 3, nil, nil)
	if err := d.WriteAtQ(9, 0, bytes.Repeat([]byte{0xEE}, d.Geom.BlockSize), func(error) {}); err != nil {
		t.Fatal(err)
	}
	f2.pending[0], f2.limit = nil, 16
	d.WakeQueueQ(0)
	for _, req := range f2.pending[0] {
		if w, ok := want[req.LBA]; ok && !bytes.Equal(req.Data, w) {
			t.Fatalf("replayed write to LBA %d carries %#x..., want %#x...", req.LBA, req.Data[0], w[0])
		}
	}
	if len(f2.pending[0]) != 4 { // tags 1, 2, 3 replayed, then the parked write
		t.Fatalf("%d submissions after the wake, want 4", len(f2.pending[0]))
	}
}
