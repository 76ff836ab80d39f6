package qcore

import (
	"fmt"
	"slices"
	"testing"

	"sud/internal/devices/nvme"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/proxy/pciaccess"
	"sud/internal/proxy/protocol"
	"sud/internal/sim"
	"sud/internal/uchan"
)

// fakeDev carries the epochs the fence reads: a kill moves the device
// epoch, and a park moves a queue's epoch once, until its re-arm, like the
// netstack's and the block core's queue recovery.
type fakeDev struct {
	epoch  uint64
	qepoch [2]uint64
	parked [2]bool
}

func (d *fakeDev) Epoch() uint64           { return d.epoch }
func (d *fakeDev) QueueEpoch(q int) uint64 { return d.qepoch[q] }

const (
	rigSlots   = 16 // slots per queue: a wake threshold of 2
	preClaimed = 14 // claimed at boot, so three claims stall a queue
	opRecycle  = 1
	opQState   = 2
)

// step is one enumerated operation on queue q (kill ignores q).
type step struct{ op, q int }

const (
	opClaim = iota
	opRelease
	opReleaseAgain
	opPark
	opRearm
	opLendFlipped
	opLendPlain
	opFlush
	opKill
)

var opNames = [...]string{"claim", "release", "release-again", "park", "re-arm", "lend-flipped", "lend-plain", "flush", "kill"}

func (s step) String() string { return fmt.Sprintf("%s(q%d)", opNames[s.op], s.q) }

// steps is every step: eight per queue on queues 0 and 1, and kill.
func steps() []step {
	var out []step
	for q := 0; q < 2; q++ {
		for op := opClaim; op < opKill; op++ {
			out = append(out, step{op, q})
		}
	}
	return append(out, step{op: opKill})
}

// rig is a fresh 2-queue core on a real device file and channel, with one
// lendable driver page per queue, and the model the checks compare it to.
type rig struct {
	m    *hw.Machine
	df   *pciaccess.DeviceFile
	acct *sim.CPUAccount
	k    *Core
	dev  *fakeDev
	page [2]uint64

	// What the driver side received: recycled pages per queue in upcall
	// order, and frames carrying an epoch other than the bound one.
	recycled [2][]uint64
	badFrame int
	// shortWake counts wakes of a queue with fewer than WakeThreshold
	// slots free; woken counts wakes.
	shortWake, woken [2]int

	// The model.
	held     [2][]int // claimed slots, most recent last
	released [2]int   // slot last released, -1 before any
	stalled  [2]bool
	killed   bool
	mirror   [2]uint64
	lent     [2][]uint64
	flipped  [2]bool // the queue's page is revoked from the driver
	returned [2][]uint64
	remaps   int
}

func newRig(t testing.TB) *rig {
	m := hw.NewMachine(hw.DefaultPlatform())
	kern := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(2))
	m.AttachDevice(ctrl)
	accts := m.CPU.QueueAccounts("driver:test", 2)
	df := pciaccess.Open(kern, ctrl, 1003, accts[0])
	c := uchan.NewMulti(m.Loop, kern.Acct, accts)
	r := &rig{m: m, df: df, acct: &sim.CPUAccount{Name: "core"}, k: &Core{}, dev: &fakeDev{}, released: [2]int{-1, -1}}
	c.SetDriverHandler(func(q int, msg uchan.Msg) (uchan.Msg, bool) {
		if msg.Op == opRecycle {
			var buf [protocol.MaxRecyclePages]uint64
			epoch, pages, err := protocol.DecodeRecycle(buf[:], msg.Data)
			if err != nil || epoch != uint32(r.k.BoundEpoch()) {
				r.badFrame++
			}
			r.recycled[q] = append(r.recycled[q], pages...)
		}
		return uchan.Msg{Seq: msg.Seq}, true
	})
	cfg := Config{Class: "test", PoolLabel: "q%d pool", Slots: rigSlots, SlotSize: mem.PageSize / rigSlots,
		RecycleOp: opRecycle, QStateOp: opQState}
	if err := r.k.Init(cfg, r.acct, df, c, func(q int) {
		r.woken[q]++
		if len(r.k.free[q]) < r.k.WakeThreshold() {
			r.shortWake[q]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	r.k.Bind(r.dev)
	for q := 0; q < 2; q++ {
		a, err := df.AllocDMAQ(mem.PageSize, fmt.Sprintf("q%d rx page", q), false, q+1)
		if err != nil {
			t.Fatal(err)
		}
		r.page[q] = uint64(a.IOVA)
		for i := 0; i < preClaimed; i++ {
			r.claim(t, q)
		}
	}
	return r
}

func (r *rig) claim(t testing.TB, q int) {
	slot, ok := r.k.NextSlot(q)
	if !ok {
		if len(r.held[q]) != rigSlots {
			t.Fatalf("q%d refused a claim with %d of %d slots claimed", q, len(r.held[q]), rigSlots)
		}
		r.stalled[q] = true
		return
	}
	r.k.Claim(q)
	r.held[q] = append(r.held[q], slot)
}

// flushModel is what a flush of q's lane must do: every lent page comes
// back once, remapped if it was flipped.
func (r *rig) flushModel(q int) {
	for _, pg := range r.lent[q] {
		if r.flipped[q] {
			r.flipped[q] = false
			r.remaps++
		}
		r.returned[q] = append(r.returned[q], pg)
	}
	r.lent[q] = nil
}

func (r *rig) lend(t testing.TB, q int, flip bool) {
	if flip && !r.flipped[q] {
		if _, err := r.df.RevokePage(mem.Addr(r.page[q])); err != nil {
			t.Fatal(err)
		}
		r.flipped[q] = true
	}
	r.k.Lend(q, r.page[q])
	if !slices.Contains(r.lent[q], r.page[q]) {
		r.lent[q] = append(r.lent[q], r.page[q])
	}
}

// do runs one step on the core and moves the model with it.
func (r *rig) do(t testing.TB, s step) {
	k, q := r.k, s.q
	switch s.op {
	case opClaim:
		r.claim(t, q)
	case opRelease:
		n := len(r.held[q])
		slot := r.held[q][n-1]
		r.held[q] = r.held[q][:n-1]
		if !k.Release(q, slot) {
			t.Fatalf("release of claimed slot %d refused", slot)
		}
		r.released[q] = slot
		was := r.woken[q]
		k.MaybeWake(q)
		if r.stalled[q] && rigSlots-len(r.held[q]) >= k.WakeThreshold() {
			r.stalled[q] = false
			if r.woken[q] != was+1 {
				t.Fatalf("q%d regained %d free slots but was not woken", q, rigSlots-len(r.held[q]))
			}
		}
	case opReleaseAgain:
		slot := r.released[q]
		if slot < 0 {
			return
		}
		if ok := k.Release(q, slot); ok != slices.Contains(r.held[q], slot) {
			t.Fatalf("second release of slot %d returned %v", slot, ok)
		}
		if i := slices.Index(r.held[q], slot); i >= 0 {
			r.held[q] = slices.Delete(r.held[q], i, i+1)
		}
	case opPark:
		if !r.dev.parked[q] {
			r.dev.parked[q] = true
			r.dev.qepoch[q]++
		}
		k.ParkQueue(q)
	case opRearm:
		k.RearmQueue(q)
		r.dev.parked[q] = false
		r.mirror[q] = r.dev.qepoch[q]
		r.flushModel(q)
	case opLendFlipped, opLendPlain:
		r.lend(t, q, s.op == opLendFlipped)
	case opFlush:
		k.FlushRecycle(q)
		r.flushModel(q)
	case opKill:
		r.dev.epoch++
		r.killed = true
	}
}

// check compares the core with the model after a step.
func (r *rig) check(t testing.TB) {
	k := r.k
	if k.Stale() != r.killed {
		t.Fatalf("Stale() = %v after kill = %v", k.Stale(), r.killed)
	}
	for q := 0; q < 2; q++ {
		claimed := 0
		for s := 0; s < rigSlots; s++ {
			if k.Claimed(q, s) {
				claimed++
				if !slices.Contains(r.held[q], s) {
					t.Fatalf("q%d slot %d claimed, model has it free", q, s)
				}
			}
		}
		if claimed != len(r.held[q]) || len(k.free[q])+claimed != rigSlots {
			t.Fatalf("q%d: %d free + %d claimed, model %d claimed, of %d", q, len(k.free[q]), claimed, len(r.held[q]), rigSlots)
		}
		for _, s := range k.free[q] {
			if k.Claimed(q, s) {
				t.Fatalf("q%d slot %d is both free and claimed", q, s)
			}
		}
		if k.QueueEpochMirror(q) != r.mirror[q] {
			t.Fatalf("q%d mirror %d, want %d: it moves only at a re-arm", q, k.QueueEpochMirror(q), r.mirror[q])
		}
		if k.QueueParked(q) != (r.dev.qepoch[q] != r.mirror[q]) {
			t.Fatalf("q%d QueueParked() = %v with device epoch %d, mirror %d", q, k.QueueParked(q), r.dev.qepoch[q], r.mirror[q])
		}
		if r.shortWake[q] != 0 {
			t.Fatalf("q%d woken with fewer than %d slots free", q, k.WakeThreshold())
		}
		if !slices.Equal(k.Lent(q), r.lent[q]) {
			t.Fatalf("q%d lane %x, want %x", q, k.Lent(q), r.lent[q])
		}
		if r.df.PageRevoked(mem.Addr(r.page[q])) != r.flipped[q] {
			t.Fatalf("q%d page revoked = %v, want %v", q, !r.flipped[q], r.flipped[q])
		}
	}
	if r.acct.Busy() != sim.Duration(r.remaps)*sim.CostPageRecycleMap {
		t.Fatalf("charged %v for %d remaps", r.acct.Busy(), r.remaps)
	}
}

// finish flushes both lanes, delivers the upcalls and checks that every lent
// page came back in exactly one recycle upcall, in order.
func (r *rig) finish(t testing.TB) {
	for q := 0; q < 2; q++ {
		r.k.FlushRecycle(q)
		r.flushModel(q)
	}
	r.check(t)
	r.m.Loop.RunFor(sim.Millisecond)
	for q := 0; q < 2; q++ {
		if !slices.Equal(r.recycled[q], r.returned[q]) {
			t.Fatalf("q%d recycled %x, want %x", q, r.recycled[q], r.returned[q])
		}
	}
	if r.badFrame != 0 || r.k.UpcallErrors != 0 {
		t.Fatalf("%d recycle frames off the bound epoch, %d upcall errors", r.badFrame, r.k.UpcallErrors)
	}
}

// TestCoreEnumerated runs every sequence of up to four steps over two
// queues, each on a fresh core, and checks the slot pools, the fence and
// the recycle lane against a model after every step.
func TestCoreEnumerated(t *testing.T) {
	all := steps()
	seq := make([]step, 0, 4)
	runs := 0
	var walk func()
	walk = func() {
		runs++
		r := newRig(t)
		r.check(t)
		for i, s := range seq {
			st := &seqT{t, seq[:i+1]}
			r.do(st, s)
			r.check(st)
		}
		r.finish(&seqT{t, seq})
		if len(seq) == cap(seq) {
			return
		}
		for _, s := range all {
			seq = append(seq, s)
			walk()
			seq = seq[:len(seq)-1]
		}
	}
	walk()
	t.Logf("%d sequences", runs)
}

// seqT names the failing sequence in every failure.
type seqT struct {
	*testing.T
	seq []step
}

func (s *seqT) Fatalf(format string, args ...any) {
	s.T.Helper()
	s.T.Fatalf("after %v: %s", s.seq, fmt.Sprintf(format, args...))
}
