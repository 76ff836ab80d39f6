package uchan

import (
	"bytes"
	"fmt"
	"testing"

	"sud/internal/sim"
)

// mfix is a multi-queue test fixture: Q ring pairs, recorded service order.
type mfix struct {
	loop  *sim.Loop
	stats *sim.CPUStats
	kern  *sim.CPUAccount
	mc    *MultiChan

	// served records (queue, msg) in service order.
	served []servedMsg
	down   []servedMsg
}

type servedMsg struct {
	q int
	m Msg
}

func newMfix(queues int) *mfix {
	loop := sim.NewLoop()
	stats := sim.NewCPUStats(queues + 1)
	f := &mfix{loop: loop, stats: stats, kern: stats.Account("kernel")}
	f.mc = NewMulti(loop, f.kern, stats.QueueAccounts("driver", queues))
	f.mc.SetDriverHandler(func(q int, m Msg) (Msg, bool) {
		m.Data = bytes.Clone(m.Data) // valid only during the handler
		f.served = append(f.served, servedMsg{q, m})
		return Msg{Seq: m.Seq}, true
	})
	f.mc.SetKernelHandler(func(q int, m Msg) {
		m.Data = bytes.Clone(m.Data)
		f.down = append(f.down, servedMsg{q, m})
	})
	return f
}

// TestSingleQueueAliasesUrgentLane pins the Q=1 compatibility contract: the
// urgent lane IS the single ring, so costs and counters match a plain Chan.
func TestSingleQueueAliasesUrgentLane(t *testing.T) {
	f := newMfix(1)
	if f.mc.UrgentLane() != f.mc.Queue(0) {
		t.Fatal("Q=1 urgent lane is a separate ring")
	}
	for i := 0; i < 5; i++ {
		if err := f.mc.ASend(0, Msg{Op: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.mc.ASendUrgent(Msg{Op: 99}); err != nil {
		t.Fatal(err)
	}
	f.loop.RunFor(2 * WakeLatency)
	if len(f.served) != 6 {
		t.Fatalf("served %d, want 6 batched on the urgent wake", len(f.served))
	}
	if f.mc.Stats().Wakeups != 1 {
		t.Fatalf("wakeups = %d, want 1 (single ring batching)", f.mc.Stats().Wakeups)
	}
}

// TestPerQueueRingFullBackpressure: filling one queue's ring reports
// ErrRingFull on that queue only; siblings and the sync control path keep
// accepting, for several queue counts (table-driven).
func TestPerQueueRingFullBackpressure(t *testing.T) {
	for _, queues := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("Q%d", queues), func(t *testing.T) {
			f := newMfix(queues)
			victim := queues - 1
			f.mc.HangQueue(victim, true)
			var full bool
			for i := 0; i < RingSlots+8; i++ {
				if err := f.mc.ASend(victim, Msg{Op: 1}); err == ErrRingFull {
					full = true
					break
				}
			}
			if !full {
				t.Fatal("hung queue's ring never filled")
			}
			if f.mc.QueueStats(victim).DroppedFull != 1 {
				t.Fatalf("victim drops = %d", f.mc.QueueStats(victim).DroppedFull)
			}
			// Every sibling still accepts and services.
			for q := 0; q < queues-1; q++ {
				if err := f.mc.ASend(q, Msg{Op: uint32(100 + q)}); err != nil {
					t.Fatalf("sibling queue %d rejected: %v", q, err)
				}
			}
			// The kernel is never blocked: sync control upcalls succeed.
			if _, err := f.mc.Send(Msg{Op: 7}); err != nil {
				t.Fatalf("sync upcall blocked by hung queue: %v", err)
			}
			f.loop.Run()
			var sibServed int
			for _, s := range f.served {
				if s.m.Op >= 100 {
					sibServed++
				}
			}
			if sibServed != queues-1 {
				t.Fatalf("sibling messages served = %d, want %d", sibServed, queues-1)
			}
			if f.mc.QueueStats(victim).DroppedFull == 0 || f.mc.Queue(victim).Pending() != RingSlots {
				t.Fatal("victim ring drained despite hang")
			}
		})
	}
}

// TestKillMidDrain kills the channel from inside a drain: in-ring messages
// after the killer are dropped, later sends fail, nothing panics — for
// single- and multi-queue channels (table-driven).
func TestKillMidDrain(t *testing.T) {
	for _, queues := range []int{1, 4} {
		t.Run(fmt.Sprintf("Q%d", queues), func(t *testing.T) {
			f := newMfix(queues)
			served := 0
			f.mc.SetDriverHandler(func(q int, m Msg) (Msg, bool) {
				served++
				if m.Op == 1 {
					f.mc.Kill() // kill -9 arrives while draining
				}
				return Msg{Seq: m.Seq}, true
			})
			for q := 0; q < queues; q++ {
				for i := 0; i < 3; i++ {
					op := uint32(2)
					if q == 0 && i == 0 {
						op = 1
					}
					if err := f.mc.ASend(q, Msg{Op: op}); err != nil {
						t.Fatal(err)
					}
				}
			}
			f.loop.Run()
			if !f.mc.Dead() {
				t.Fatal("channel alive after mid-drain kill")
			}
			// The killer message was served; everything queued behind it
			// (its own ring and every sibling ring) was dropped.
			if served != 1 {
				t.Fatalf("served %d messages, want 1 (the killer)", served)
			}
			if f.mc.Pending() != 0 {
				t.Fatalf("pending = %d after kill", f.mc.Pending())
			}
			if err := f.mc.ASend(0, Msg{}); err != ErrDead {
				t.Fatalf("ASend after kill = %v", err)
			}
			if err := f.mc.DownQ(queues-1, Msg{}); err != ErrDead {
				t.Fatalf("DownQ after kill = %v", err)
			}
			if _, err := f.mc.Send(Msg{}); err != ErrDead {
				t.Fatalf("Send after kill = %v", err)
			}
		})
	}
}

// TestUrgentLaneOrderingUnderConcurrentService: with bulk backlogs queued on
// every ring, urgent messages are serviced in FIFO order at wake latency —
// before any sibling's deferred bulk drain — and the interrupt wake pumps
// the sibling rings (no second lazy-doorbell wait).
func TestUrgentLaneOrderingUnderConcurrentService(t *testing.T) {
	f := newMfix(4)
	// Bulk backlog on all four rings; the drivers are asleep, so these
	// wait on deferred doorbells (LazyDoorbell = 50 µs).
	for q := 0; q < 4; q++ {
		for i := 0; i < 4; i++ {
			if err := f.mc.ASend(q, Msg{Op: uint32(10*q + i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Three interrupt-class messages.
	for i := 0; i < 3; i++ {
		if err := f.mc.ASendUrgent(Msg{Op: uint32(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Run just past the urgent wake: urgent messages must already be
	// served, in order, before the 50 µs lazy doorbells would fire.
	f.loop.RunFor(WakeLatency)
	var urgents []uint32
	for _, s := range f.served {
		if s.m.Op >= 1000 {
			urgents = append(urgents, s.m.Op)
		}
	}
	if len(urgents) != 3 {
		t.Fatalf("urgent served = %d at wake latency, want 3", len(urgents))
	}
	for i, op := range urgents {
		if op != uint32(1000+i) {
			t.Fatalf("urgent order %v, want FIFO", urgents)
		}
	}
	// The interrupt wake pumped the bulk rings: everything drains well
	// before the lazy doorbell deadline.
	f.loop.RunFor(2 * WakeLatency)
	if len(f.served) != 16+3 {
		t.Fatalf("served %d, want all 19 riding the urgent wake", len(f.served))
	}
	// Each ring serviced its own messages on its own account.
	for q := 0; q < 4; q++ {
		if f.stats.Account(fmt.Sprintf("driver/q%d", q)).Busy() == 0 {
			t.Fatalf("queue %d's service thread never charged", q)
		}
	}
}

// TestUrgentServiceFlushesDowncalls: downcalls queued while servicing an
// interrupt-class message (IRQ ack, netif_rx) must reach the kernel from
// the urgent drain itself — the driver may have no bulk traffic pending to
// trigger a later flush (regression: on Q>1 they were stranded until an
// unrelated ring flushed, wedging the interrupt-ack path).
func TestUrgentServiceFlushesDowncalls(t *testing.T) {
	for _, queues := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("Q%d", queues), func(t *testing.T) {
			f := newMfix(queues)
			f.mc.SetDriverHandler(func(q int, m Msg) (Msg, bool) {
				// The ISR acks its interrupt on the control ring and
				// completes work on the last ring.
				if err := f.mc.DownQ(0, Msg{Op: 500}); err != nil {
					t.Fatal(err)
				}
				if err := f.mc.DownQ(queues-1, Msg{Op: 501}); err != nil {
					t.Fatal(err)
				}
				return Msg{Seq: m.Seq}, true
			})
			if err := f.mc.ASendUrgent(Msg{Op: 1}); err != nil {
				t.Fatal(err)
			}
			f.loop.RunFor(2 * WakeLatency)
			if len(f.down) != 2 {
				t.Fatalf("kernel saw %d downcalls after urgent service, want 2", len(f.down))
			}
		})
	}
}

// TestKernelDropsMalformedDowncallSlots: the multi-queue downcall path
// carries driver-written slot bytes; the kernel-side dequeue must reject
// garbage and queue-spoofed slots without dispatching them.
func TestKernelDropsMalformedDowncallSlots(t *testing.T) {
	f := newMfix(2)
	// A malicious driver scribbles raw bytes into its downcall ring...
	if err := f.mc.Queue(1).Down(Msg{Op: opEncodedSlot, Data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	// ...and forges a slot whose queue tag names a sibling ring.
	if err := f.mc.Queue(1).Down(Msg{Op: opEncodedSlot, Data: AppendSlot(nil, 0, Msg{Op: 7})}); err != nil {
		t.Fatal(err)
	}
	f.mc.Flush()
	if len(f.down) != 0 {
		t.Fatalf("kernel dispatched %d forged downcalls", len(f.down))
	}
	if f.mc.BadSlots != 2 {
		t.Fatalf("BadSlots = %d, want 2", f.mc.BadSlots)
	}
	// Honest downcalls still flow.
	if err := f.mc.DownQ(1, Msg{Op: 8}); err != nil {
		t.Fatal(err)
	}
	f.mc.Flush()
	if len(f.down) != 1 || f.down[0].q != 1 || f.down[0].m.Op != 8 {
		t.Fatalf("honest downcall mangled: %+v", f.down)
	}
}

// TestDownQPerQueueBatching: downcalls batch per ring — one doorbell per
// flushed queue, delivered to the kernel handler tagged with its queue.
func TestDownQPerQueueBatching(t *testing.T) {
	f := newMfix(2)
	for i := 0; i < 3; i++ {
		if err := f.mc.DownQ(0, Msg{Op: uint32(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.mc.DownQ(1, Msg{Op: 200}); err != nil {
		t.Fatal(err)
	}
	if len(f.down) != 0 {
		t.Fatal("downcalls delivered before flush")
	}
	f.mc.Flush()
	if len(f.down) != 4 {
		t.Fatalf("kernel saw %d downcalls", len(f.down))
	}
	if f.down[3].q != 1 || f.down[3].m.Op != 200 {
		t.Fatalf("queue tag lost: %+v", f.down[3])
	}
	st := f.mc.Stats()
	if st.Doorbells != 2 {
		t.Fatalf("doorbells = %d, want one per non-empty ring", st.Doorbells)
	}
}

// TestDownQFlushAllocatesNothing pins the multi-queue downcall path: slot
// bytes are written into per-ring batch storage recycled at every flush,
// so steady-state DownQ→Flush on Q=4 allocates nothing (payload-free
// downcalls; TestNestedFlushKeepsOuterSlotData covers inline data, whose
// defensive copy comes from the kernel's free list).
func TestDownQFlushAllocatesNothing(t *testing.T) {
	f := newMfix(4)
	n := 0
	f.mc.SetKernelHandler(func(q int, m Msg) { n++ })
	if a := testing.AllocsPerRun(200, func() {
		for q := 0; q < 4; q++ {
			for i := 0; i < 8; i++ {
				if err := f.mc.DownQ(q, Msg{Op: uint32(i), Args: [6]uint64{uint64(q)}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.mc.Flush()
	}); a != 0 {
		t.Fatalf("DownQ+Flush allocates %v times", a)
	}
	if n != 201*32 || f.mc.BadSlots != 0 {
		t.Fatalf("delivered %d (bad %d), want %d", n, f.mc.BadSlots, 201*32)
	}
}

// TestDownQSlotDataSurvivesRecycling: inline payloads of successive
// batches reach the kernel intact even though the ring reuses its slot
// storage from one flush to the next.
func TestDownQSlotDataSurvivesRecycling(t *testing.T) {
	f := newMfix(2)
	for round := 0; round < 4; round++ {
		f.down = f.down[:0]
		for i := 0; i < 3; i++ {
			data := []byte(fmt.Sprintf("r%d-m%d", round, i))
			if err := f.mc.DownQ(1, Msg{Op: uint32(i), Data: data}); err != nil {
				t.Fatal(err)
			}
		}
		f.mc.Flush()
		if len(f.down) != 3 {
			t.Fatalf("round %d: %d downcalls", round, len(f.down))
		}
		for i, d := range f.down {
			if want := fmt.Sprintf("r%d-m%d", round, i); string(d.m.Data) != want {
				t.Fatalf("round %d: downcall %d carries %q, want %q", round, i, d.m.Data, want)
			}
		}
	}
}

// TestNestedFlushKeepsOuterSlotData: a kernel handler that re-enters the
// flush on its own ring (as a synchronous Send does) gets the nested
// downcall decoded into a buffer of its own — the outer handler's decoded
// Data is unchanged when the nested flush returns — and once warm, the
// round trip allocates nothing, inline payloads included.
func TestNestedFlushKeepsOuterSlotData(t *testing.T) {
	f := newMfix(2)
	outer, inner := []byte("outer payload"), []byte("INNER PAYLOAD")
	var order []uint32 // ops in delivery order, each with the right payload
	f.mc.SetKernelHandler(func(q int, m Msg) {
		if m.Op == 1 {
			if err := f.mc.DownQ(q, Msg{Op: 2, Data: inner}); err != nil {
				t.Fatal(err)
			}
			f.mc.Flush()
		}
		if want := [...][]byte{1: outer, 2: inner}[m.Op]; bytes.Equal(m.Data, want) {
			order = append(order, m.Op)
		}
	})
	order = make([]uint32, 0, 2)
	if a := testing.AllocsPerRun(100, func() {
		order = order[:0]
		if err := f.mc.DownQ(1, Msg{Op: 1, Data: outer}); err != nil {
			t.Fatal(err)
		}
		f.mc.Flush()
	}); a != 0 {
		t.Fatalf("nested flush with inline data allocates %v times", a)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 || f.mc.BadSlots != 0 {
		t.Fatalf("delivered ops %v with the right payload (bad slots %d), want [2 1]", order, f.mc.BadSlots)
	}
}

// TestKillInDriverHandlerWithQueuedData: a driver handler that kills its
// process while Data-carrying upcalls wait behind it keeps its own payload
// for the rest of the call, the queued ones are dropped unseen, and the
// channel refuses further traffic — on one ring and on four.
func TestKillInDriverHandlerWithQueuedData(t *testing.T) {
	for _, queues := range []int{1, 4} {
		t.Run(fmt.Sprintf("Q%d", queues), func(t *testing.T) {
			f := newMfix(queues)
			served := 0
			f.mc.SetDriverHandler(func(q int, m Msg) (Msg, bool) {
				served++
				f.mc.Kill()
				if string(m.Data) != "upcall 0" {
					t.Errorf("after Kill the handler's payload reads %q", m.Data)
				}
				return Msg{Seq: m.Seq}, true
			})
			buf := make([]byte, 0, 16)
			for i := 0; i < 3; i++ {
				buf = fmt.Appendf(buf[:0], "upcall %d", i)
				if err := f.mc.ASend(0, Msg{Op: 1, Data: buf}); err != nil {
					t.Fatal(err)
				}
			}
			copy(buf, "XXXXXXXX") // the sender reuses its buffer at once
			f.loop.Run()
			if served != 1 || !f.mc.Dead() || f.mc.Pending() != 0 {
				t.Fatalf("served %d, dead %v, pending %d", served, f.mc.Dead(), f.mc.Pending())
			}
			if err := f.mc.ASend(0, Msg{Data: buf}); err != ErrDead {
				t.Fatalf("ASend after kill = %v", err)
			}
		})
	}
}
