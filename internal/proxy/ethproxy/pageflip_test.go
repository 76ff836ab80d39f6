package ethproxy

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sud/internal/hw"
	"sud/internal/kernel/netstack"
	"sud/internal/mem"
	"sud/internal/sim"
	"sud/internal/trace"
	"sud/internal/uchan"
)

// refRxBatchFlip is the map-based page grouping netifRxBatchFlip replaced,
// kept as FuzzRxBatchFlip's reference: a map from page to group, groups
// in order of first appearance, and the references that cannot join a page.
func refRxBatchFlip(p *Proxy, q int, refs []RxRef) {
	var groups []*pageGroup
	idx := make(map[mem.Addr]*pageGroup, len(refs)/slotsPerPage+1)
	var loose []RxRef
	for _, r := range refs {
		iova := mem.Addr(r.IOVA)
		n := int(r.Len)
		if n <= 0 || n > RxSlotSize || iova%RxSlotSize != 0 {
			loose = append(loose, r)
			continue
		}
		page := mem.PageAlign(iova)
		g := idx[page]
		if g == nil {
			g = &pageGroup{iova: page}
			idx[page] = g
			groups = append(groups, g)
		}
		slot := int(iova-page) / RxSlotSize
		if g.mask&(1<<slot) != 0 {
			g.bad = true
		}
		g.mask |= 1 << slot
		g.refs[slot] = r
	}

	flipped := 0
	for _, g := range groups {
		full := !g.bad && g.mask == 1<<slotsPerPage-1
		delivered := false
		if full && p.DF.ValidateRange(g.iova, mem.PageSize) {
			phys, err := p.DF.RevokePage(g.iova)
			if err == nil {
				p.K.Acct.Charge(sim.CostPageFlipRevoke)
				p.PagesFlipped++
				flipped++
				delivered = true
				for slot := 0; slot < slotsPerPage; slot++ {
					r := g.refs[slot]
					n := int(r.Len)
					if n > maxFrame {
						p.RxBadLength++
						continue
					}
					view, ok := p.K.Mem.Slice(phys+mem.Addr(slot*RxSlotSize), n)
					if !ok {
						p.RxInvalidRef++
						continue
					}
					p.K.Acct.Charge(sim.Checksum(n))
					p.K.Net.Trace.Event(trace.ClassNetRx, q, r.IOVA, trace.HopFlip)
					p.RxQueueFrames[q]++
					p.Ifc.NetifRxVerified(view, q)
					p.rxDelivered(q, r.IOVA)
				}
			}
		}
		if !delivered {
			for slot := 0; slot < slotsPerPage; slot++ {
				if g.mask&(1<<slot) != 0 {
					r := g.refs[slot]
					p.netifRx(q, mem.Addr(r.IOVA), int(r.Len))
				}
			}
		}
		p.Lend(q, uint64(g.iova))
	}
	for _, r := range loose {
		p.netifRx(q, mem.Addr(r.IOVA), int(r.Len))
	}
	if flipped > 0 {
		p.K.Acct.Charge(sim.CostIOTLBShootdown)
		p.Shootdowns++
	}
	p.MaybeFlush(q)
}

// flipPoolPages is the size of a flip rig's RX pool, in pages.
const flipPoolPages = 6

// flipRig is a 4-queue proxy under GuardPageFlip with an RX pool whose
// every slot holds a UDP frame naming its page and slot. It logs each
// delivery with the guard counters as they stood (so a flipped frame and a
// guard-copied one log differently) and each upcall the driver receives.
type flipRig struct {
	*rig
	pool mem.Addr // the RX pool's first IOVA
	log  []string
}

func newFlipRig(t *testing.T) *flipRig {
	r := &flipRig{rig: newRigQ(t, 4)}
	r.p.GuardMode = GuardPageFlip
	pool, err := r.df.AllocDMA(flipPoolPages*mem.PageSize, "rx pool", false)
	if err != nil {
		t.Fatal(err)
	}
	r.pool = pool.IOVA
	for pg := 0; pg < flipPoolPages; pg++ {
		for slot := 0; slot < slotsPerPage; slot++ {
			frame := netstack.AppendUDPFrame(nil, netstack.MAC{9}, netstack.MAC(mac),
				netstack.IP{1}, netstack.IP{2}, 1, 80, fmt.Appendf(nil, "page %d slot %d", pg, slot))
			r.m.Mem.MustWrite(pool.Phys+mem.Addr(pg*mem.PageSize+slot*RxSlotSize), frame)
		}
	}
	if _, err := r.k.Net.UDPBind(80, func(b []byte, _ netstack.IP, _ uint16) {
		r.log = append(r.log, fmt.Sprintf("deliver %q flipped=%d copied=%d", b, r.p.PagesFlipped, r.p.GuardCopiedBytes))
	}); err != nil {
		t.Fatal(err)
	}
	r.mc.SetDriverHandler(func(q int, m uchan.Msg) (uchan.Msg, bool) {
		r.log = append(r.log, fmt.Sprintf("upcall q%d op %d %x", q, m.Op, m.Data))
		return uchan.Msg{Seq: m.Seq}, true
	})
	return r
}

// state is everything the grouping decides, beyond the delivery log.
func (r *flipRig) state() string {
	p := r.p
	var b bytes.Buffer
	fmt.Fprintf(&b, "frames %v batches %v invalid %d badlen %d revoked %d flipped %d shootdowns %d copied %d recycles %d errs %d\n",
		p.RxQueueFrames, p.RxQueueBatches, p.RxInvalidRef, p.RxBadLength, p.RxRevokedRef, p.PagesFlipped,
		p.Shootdowns, p.GuardCopiedBytes, p.RecycleUpcalls, p.UpcallErrors)
	fmt.Fprintf(&b, "df revoked %d faults %d\n", r.df.RevokedPages(), r.df.RevokedFaults)
	for q := 0; q < p.NumQueues(); q++ {
		fmt.Fprintf(&b, "q%d pending %x stack frames %d\n", q, p.Lent(q), p.Ifc.Queue(q).RxFrames)
	}
	return b.String()
}

// flipBatches turns fuzz bytes into RX batches aimed at a pool starting at
// pool, three bytes per reference:
//
//   - b0: bits 0-2 pick the page (0-5 the pool, 6 memory the driver does
//     not own, 7 the pool's last page), bits 3-4 the queue of the batch the
//     reference starts, and bit 7 ends the batch after it;
//   - b1: bits 0-1 pick slot 0, slot 1, an unaligned offset or one close
//     enough to the page end to straddle it; bits 2-7 scale the offset;
//   - b2: bits 0-1 pick the staged frame's length, zero, one past a slot,
//     or bits 2-7 times 32.
//
// A batch also ends at MaxRxBatch references.
func flipBatches(pool mem.Addr, data []byte) (qs []int, batches [][]RxRef) {
	frameLen := uint32(netstack.EthHeaderLen + 20 + 8 + len("page 0 slot 0"))
	var cur []RxRef
	q := 0
	for len(data) >= 3 {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		if len(cur) == 0 {
			q = int(b0>>3) & 3
		}
		page := pool + mem.Addr(b0&7)*mem.PageSize
		switch b0 & 7 {
		case 6:
			page = hw.DRAMBase
		case 7:
			page = pool + (flipPoolPages-1)*mem.PageSize
		}
		var off mem.Addr
		switch b1 & 3 {
		case 1:
			off = RxSlotSize
		case 2:
			off = 8 * mem.Addr(b1>>2)
		case 3:
			off = mem.PageSize - 16*mem.Addr(b1>>2) - 1
		}
		var n uint32
		switch b2 & 3 {
		case 0:
			n = frameLen
		case 2:
			n = RxSlotSize + 1
		case 3:
			n = 32 * uint32(b2>>2)
		}
		cur = append(cur, RxRef{IOVA: uint64(page + off), Len: n})
		if b0&0x80 != 0 || len(cur) == MaxRxBatch {
			qs, batches = append(qs, q), append(batches, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		qs, batches = append(qs, q), append(batches, cur)
	}
	return qs, batches
}

// FuzzRxBatchFlip drives the page-flip receive path with reference lists a
// hostile driver chooses: duplicate slots, unaligned and out-of-order
// references, references straddling a page, half-covered pages and memory
// the driver does not own. Against the map-based grouping it replaced,
// every list must deliver the same frames in the same order, each flipped
// or guard-copied alike, and leave the same counters and the same pending
// pages and recycle order. A final flush sends the same recycle upcalls.
func FuzzRxBatchFlip(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x01, 0x00}) // one page fully tiled
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 0x00, 0x00}) // out of order
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x00, 0x00}) // a duplicate slot
	f.Add([]byte{0x01, 0x00, 0x00, 0x80, 0x06, 0x00}) // unaligned partner
	f.Add([]byte{0x02, 0x07, 0x00, 0x82, 0x01, 0x00}) // straddling the page end
	f.Add([]byte{0x83, 0x00, 0x00, 0x04, 0x01, 0x00}) // half a page per batch
	f.Add([]byte{0x06, 0x00, 0x00, 0x05, 0x00, 0x01, 0x85, 0x01, 0x02})
	f.Add([]byte{0x08, 0x00, 0x00, 0x08, 0x01, 0x00, 0x09, 0x00, 0x00, 0x89, 0x01, 0x00,
		0x10, 0x00, 0x00, 0x90, 0x01, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := newFlipRig(t), newFlipRig(t)
		if got.pool != want.pool {
			t.Fatal("the two rigs' pools differ")
		}
		qs, batches := flipBatches(got.pool, data)
		for i, refs := range batches {
			got.p.netifRxBatchFlip(qs[i], refs)
			refRxBatchFlip(want.p, qs[i], refs)
			if g, w := got.state(), want.state(); g != w {
				t.Fatalf("batch %d %+v on queue %d:\ngot  %s\nwant %s", i, refs, qs[i], g, w)
			}
		}
		for q := 0; q < got.p.C.NumQueues(); q++ {
			got.p.FlushRecycle(q)
			want.p.FlushRecycle(q)
		}
		got.m.Loop.RunFor(sim.Millisecond)
		want.m.Loop.RunFor(sim.Millisecond)
		if !slices.Equal(got.log, want.log) {
			t.Fatalf("logs differ:\ngot  %q\nwant %q", got.log, want.log)
		}
		if g, w := got.state(), want.state(); g != w {
			t.Fatalf("after the recycle flush:\ngot  %s\nwant %s", g, w)
		}
	})
}

// TestRxBatchFlipCoversEveryPath checks FuzzRxBatchFlip's seeds reach what
// the fuzzer compares: a tiled page flips, a page with a duplicate slot is
// guard-copied once per slot, memory the driver does not own is rejected,
// and every page a slot-packed reference named goes on the recycle lane.
func TestRxBatchFlipCoversEveryPath(t *testing.T) {
	r := newFlipRig(t)
	qs, batches := flipBatches(r.pool, []byte{
		0x00, 0x00, 0x00, 0x80, 0x01, 0x00, // page 0 tiled
		0x01, 0x00, 0x00, 0x81, 0x00, 0x00, // page 1, slot 0 twice
		0x86, 0x00, 0x00, // memory the driver does not own
	})
	for i, refs := range batches {
		r.p.netifRxBatchFlip(qs[i], refs)
	}
	p := r.p
	if p.PagesFlipped != 1 || p.GuardCopiedBytes == 0 || p.RxInvalidRef != 1 || len(p.Lent(0)) != 3 {
		t.Fatalf("flipped %d, copied %d B, invalid %d, pending %x",
			p.PagesFlipped, p.GuardCopiedBytes, p.RxInvalidRef, p.Lent(0))
	}
	if len(r.log) != 3 {
		t.Fatalf("deliveries %q, want 3", r.log)
	}
}
