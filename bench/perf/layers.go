package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"

	"sud/internal/devices/e1000"
	"sud/internal/devices/nvme"
	"sud/internal/hw"
	"sud/internal/kernel/blockdev"
	"sud/internal/kernel/netstack"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/tenantperf"
	"sud/internal/trace"
)

// bed is one booted testbed seen from outside: the machine plus the layer
// objects whose public counters, accounts and histograms the benchmark
// reads. Fields a testbed lacks stay nil.
type bed struct {
	m     *hw.Machine
	live  func() []*sudml.Process // the driver processes running now
	nic   *e1000.NIC
	ctrl  *nvme.Ctrl
	ifc   *netstack.Iface // the e1000e interface whose queues carry the latency histograms
	dev   *blockdev.Dev
	kv    *tenantperf.Testbed
	rtt   *trace.Hist      // client round trips timed at the wire
	procs []*sudml.Process // every process seen so far, dead incarnations included
}

// processes returns every driver process the bed has run. A supervised bed
// replaces a killed process; the dead one's counters stay frozen, so summing
// over all incarnations keeps each counter monotonic.
func (b *bed) processes() []*sudml.Process {
	for _, p := range b.live() {
		if !slices.Contains(b.procs, p) {
			b.procs = append(b.procs, p)
		}
	}
	return b.procs
}

// snapshot is every monotonic counter and latency histogram of one bed at
// one instant, keyed by layer. A span's activity is end.sub(start).
type snapshot struct {
	n map[string]uint64
	h map[string]trace.Hist
}

func newSnapshot() snapshot {
	return snapshot{n: map[string]uint64{}, h: map[string]trace.Hist{}}
}

func (s snapshot) merge(key string, h *trace.Hist) {
	m := s.h[key]
	m.Merge(h)
	s.h[key] = m
}

func (s snapshot) sub(base snapshot) snapshot {
	d := newSnapshot()
	for k, v := range s.n {
		d.n[k] = v - base.n[k]
	}
	for k, h := range s.h {
		b := base.h[k]
		d.h[k] = h.Sub(&b)
	}
	return d
}

func (s snapshot) add(o snapshot) {
	for k, v := range o.n {
		s.n[k] += v
	}
	for k, h := range o.h {
		s.merge(k, &h)
	}
}

// snap reads the bed's counters. It only reads: no charge, no event.
func (b *bed) snap() snapshot {
	s := newSnapshot()
	m := b.m
	s.n["sim.events"] = m.Loop.Dispatched()
	s.n["iommu.walks"] = m.IOMMU.Walks()
	s.n["iommu.tlb_hits"], s.n["iommu.tlb_misses"] = m.IOMMU.TLBStats()
	s.n["iommu.faults"] = uint64(len(m.IOMMU.Faults()))
	s.n["hw.dma_errors"] = m.DMAErrors

	for _, p := range b.processes() {
		st := p.Chan.Stats()
		s.n["uchan.upcalls"] += st.Upcalls
		s.n["uchan.downcalls"] += st.Downcalls
		s.n["uchan.doorbells"] += st.Doorbells
		s.n["uchan.wakeups"] += st.Wakeups
		s.n["uchan.spin_pickups"] += st.SpinPickups
		s.n["uchan.dropped_full"] += st.DroppedFull
		if e := p.Eth; e != nil {
			s.n["proxy.pages_flipped"] += e.PagesFlipped
			s.n["proxy.shootdowns"] += e.Shootdowns
			s.n["proxy.recycle_upcalls"] += e.RecycleUpcalls
			s.n["proxy.guard_bytes"] += e.GuardCopiedBytes
			s.n["proxy.rejects"] += e.RxInvalidRef + e.RxBadLength + e.RxBadBatch + e.RxStaleEpoch +
				e.RxStaleQueueEpoch + e.RxRevokedRef + e.RecycleBadAck + e.RecycleStaleAck + e.UpcallErrors
		}
		if k := p.Blk; k != nil {
			s.n["proxy.pages_flipped"] += k.PagesFlipped
			s.n["proxy.shootdowns"] += k.Shootdowns
			s.n["proxy.recycle_upcalls"] += k.RecycleUpcalls
			s.n["proxy.guard_bytes"] += k.GuardCopiedBytes
			s.n["proxy.flushes"] += k.FlushesIssued
			s.n["proxy.rejects"] += k.CompInvalidRef + k.CompBadLength + k.CompBadTag + k.CompBadBatch +
				k.CompBadFlushFrame + k.CompBadBarrier + k.CompBarrierEarly + k.CompStaleEpoch +
				k.CompStaleQueueEpoch + k.CompRevokedRef + k.RecycleBadAck + k.RecycleStaleAck + k.UpcallErrors
		}
	}
	if b.nic != nil {
		s.n["devices.tdt_writes"] = b.nic.TDTWrites
		s.n["devices.tx_packets"] = b.nic.TxPackets
		s.n["devices.interrupts"] += b.nic.InterruptsRaised
	}
	if b.ctrl != nil {
		s.n["devices.sq_doorbells"] = b.ctrl.SQDoorbellWrites
		s.n["devices.interrupts"] += b.ctrl.InterruptsRaised
		s.n["devices.cache_evictions"] = b.ctrl.CacheEvictions
	}
	if b.ifc != nil {
		for q := 0; q < b.ifc.NumQueues(); q++ {
			iq := b.ifc.Queue(q)
			s.merge("netstack.rx", &iq.RxLat)
			s.merge("netstack.tx", &iq.TxLat)
			s.n[fmt.Sprintf("netstack.frames.q%d", q)] = iq.RxFrames + iq.TxFrames
		}
	}
	if b.dev != nil {
		for q := 0; q < b.dev.NumQueues(); q++ {
			s.merge(fmt.Sprintf("blockdev.q%d", q), b.dev.QueueLatency(q))
			s.n["blockdev.errors"] += b.dev.Queue(q).Errors
		}
		s.n["blockdev.flushes"] = b.dev.Flushes
	}
	if b.rtt != nil {
		s.merge("client.rtt", b.rtt)
	}
	if b.kv != nil {
		for _, tl := range b.kv.Client.Tenants {
			s.merge(fmt.Sprintf("kv.t%d", tl.ID), &tl.Lat)
			s.n[fmt.Sprintf("kv.t%d.replies", tl.ID)] = tl.Replies
			s.n["kv.retrans"] += tl.Retrans
			s.n["kv.duplicates"] += tl.Duplicates
			s.n["kv.send_errs"] += tl.SendErrs
			srv := b.kv.Srv.Tenant(tl.ID)
			s.n["kvserve.persist_errs"] += srv.PersistErrs
			s.n["kvserve.server_errs"] += srv.BadRequests + srv.ReplyErrs
		}
	}
	return s
}

// maxDownBatch is the deepest downcall batch any incarnation flushed — a
// high-water mark, not a counter, so it is read at the end of the span.
func (b *bed) maxDownBatch() uint64 {
	var mx uint64
	for _, p := range b.processes() {
		mx = max(mx, p.Chan.Stats().MaxDownBatch)
	}
	return mx
}

// cpuBusy reads every CPU account of the machine.
func cpuBusy(m *hw.Machine) map[string]sim.Duration {
	out := map[string]sim.Duration{}
	for _, name := range m.CPU.Names() {
		out[name] = m.CPU.Account(name).Busy()
	}
	return out
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeapMB collects garbage and returns the live heap in MB. Call it while
// the bed is still reachable, so the bed is what it measures.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// hists returns the named histograms merged (keys with the prefix).
func (s snapshot) hists(prefix string) []trace.Hist {
	keys := make([]string, 0, len(s.h))
	for k := range s.h {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]trace.Hist, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.h[k])
	}
	return out
}

func (s snapshot) merged(prefix string) trace.Hist {
	var all trace.Hist
	for _, h := range s.hists(prefix) {
		all.Merge(&h)
	}
	return all
}

// spread is max/min over the counters with the prefix (1 when there is one
// counter, 0 when the smallest is 0).
func (s snapshot) spread(prefix, suffix string) float64 {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for k, v := range s.n {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	if hi == 0 || lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// quantileUS is the p-quantile of h in µs. trace.Hist answers with the upper
// bound of the log-linear bucket holding the rank, which moves only in steps
// of a bucket (1/64 of the value); interpolating linearly over the ranks the
// bucket holds lets a small shift in the distribution show.
func quantileUS(h *trace.Hist, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := min(max(uint64(p*float64(n)+0.5), 1), n)
	at := func(r uint64) sim.Duration { return h.Percentile(float64(r) / float64(n)) }
	hi := at(rank)
	first := uint64(sort.Search(int(rank), func(i int) bool { return at(uint64(i)+1) >= hi })) + 1
	last := rank + uint64(sort.Search(int(n-rank), func(i int) bool { return at(rank+uint64(i)+1) > hi }))
	lo := bucketLow(hi)
	v := float64(lo) + float64(hi-lo)*float64(rank-first+1)/float64(last-first+1)
	return v / float64(sim.Microsecond)
}

// bucketLow is the smallest duration in the trace.Hist bucket whose upper
// bound is hi: exact below 64 ns, then 64 buckets per octave, so a bucket
// spans 2^(bitlen(hi)-7) ns.
func bucketLow(hi sim.Duration) sim.Duration {
	if hi < 64 {
		return hi
	}
	return hi + 1 - sim.Duration(1)<<(bits.Len64(uint64(hi))-7)
}
