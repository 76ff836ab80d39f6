package ethproxy

// The GuardPageFlip receive path (§3.1.2, amortised): instead of guard-copying
// every frame out of shared memory, the proxy flips ownership of whole buffer
// pages. A batch's references are grouped by 4-KiB page; a page whose slots
// are fully tiled by valid references is revoked from the driver's IOMMU
// domain in a single walk (the device faults on further DMA to it, the driver
// process faults on further loads/stores), its frames are delivered to the
// netstack by reference with checksum verification only, and the page is
// queued for the lazy recycle lane. One IOTLB shootdown per batch makes the
// revocations globally visible — the per-buffer invalidation the paper
// rejected as prohibitive becomes affordable when amortised over ~30 frames.
// Anything that cannot flip — unaligned references, partially-covered pages,
// duplicate slots — falls back to the per-frame fused guard copy, so the
// TOCTOU property never depends on driver cooperation.

import (
	"sud/internal/mem"
	"sud/internal/sim"
	"sud/internal/trace"
)

// slotsPerPage is how many RX buffer slots tile one page.
const slotsPerPage = mem.PageSize / RxSlotSize

// pageGroup collects one page's slot-packed references in a batch.
type pageGroup struct {
	iova mem.Addr
	mask uint
	refs [slotsPerPage]RxRef
	bad  bool // duplicate slot: treat every member as loose
}

// netifRxBatchFlip delivers one decoded RX batch under GuardPageFlip. refs
// holds at most MaxRxBatch references (DecodeRxBatch's bound), so the
// grouping runs on arrays of that size: pages in order of first
// appearance, found by linear scan, and the references that cannot join a
// page.
func (p *Proxy) netifRxBatchFlip(q int, refs []RxRef) {
	var groups [MaxRxBatch]pageGroup
	var loose [MaxRxBatch]RxRef
	ng, nl := 0, 0
	for _, r := range refs {
		iova := mem.Addr(r.IOVA)
		n := int(r.Len)
		if n <= 0 || n > RxSlotSize || iova%RxSlotSize != 0 {
			// Not slot-packed: cannot participate in page coverage.
			// netifRx applies its own length/range validation.
			loose[nl] = r
			nl++
			continue
		}
		page := mem.PageAlign(iova)
		var g *pageGroup
		for i := range groups[:ng] {
			if groups[i].iova == page {
				g = &groups[i]
				break
			}
		}
		if g == nil {
			g = &groups[ng]
			g.iova = page
			ng++
		}
		slot := int(iova-page) / RxSlotSize
		if g.mask&(1<<slot) != 0 {
			g.bad = true
		}
		g.mask |= 1 << slot
		g.refs[slot] = r
	}

	flipped := 0
	for i := range groups[:ng] {
		g := &groups[i]
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
					if !p.lengthOK(n) {
						continue
					}
					view, ok := p.K.Mem.Slice(phys+mem.Addr(slot*RxSlotSize), n)
					if !ok {
						p.RxInvalidRef++
						continue
					}
					// The driver's window onto the page is gone, so
					// the view is stable: checksum verification is
					// the whole guard. Zero copied bytes.
					p.K.Acct.Charge(sim.Checksum(n))
					p.K.Net.Trace.Event(trace.ClassNetRx, q, r.IOVA, trace.HopFlip)
					p.RxQueueFrames[q]++
					p.Ifc.NetifRxVerified(view, q)
					p.rxDelivered(q, r.IOVA)
				}
			}
		}
		if !delivered {
			// Partial coverage, failed validation (counted there), or a
			// lost revoke race: per-frame fused guard for every member.
			for slot := 0; slot < slotsPerPage; slot++ {
				if g.mask&(1<<slot) != 0 {
					r := g.refs[slot]
					p.netifRx(q, mem.Addr(r.IOVA), int(r.Len))
				}
			}
		}
		// Return the page whether it flipped or not: under page flip a
		// page-aware driver re-arms descriptors only on recycle, so the
		// recycle lane doubles as the ownership token for pages whose
		// frames went through the guard-copy fallback. A page whose slots
		// straddle batches is lent once; the lane's FIFO order matches the
		// driver's descriptor consumption order.
		p.Lend(q, uint64(g.iova))
	}
	for _, r := range loose[:nl] {
		p.netifRx(q, mem.Addr(r.IOVA), int(r.Len))
	}
	if flipped > 0 {
		// One shootdown covers every page this batch revoked.
		p.K.Acct.Charge(sim.CostIOTLBShootdown)
		p.Shootdowns++
	}
	p.MaybeFlush(q)
}
