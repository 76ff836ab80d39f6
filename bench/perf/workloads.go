package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"sud/internal/diskperf"
	"sud/internal/hw"
	"sud/internal/netperf"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/tenantperf"
	"sud/internal/trace"
)

// workload is one benchmark input: how to boot its testbed (timed as
// set-up) and how to measure it.
type workload struct {
	name    string
	boot    func() error
	measure func(p pass) (*window, error)
}

// pass is one measurement of a workload.
type pass struct {
	seed   uint64
	scale  float64 // multiplies every window (1 = the declared run length)
	short  bool    // the traced pass's short window instead of the full one
	traced bool    // record spans over the window
}

// span scales d, to no less than 1 ms.
func (p pass) span(d sim.Duration) sim.Duration {
	return max(sim.Duration(float64(d)*p.scale), sim.Millisecond)
}

// window picks the full or short span, scaled.
func (p pass) window(full, short sim.Duration) sim.Duration {
	if p.short {
		return p.span(short)
	}
	return p.span(full)
}

// rand is the pass's input generator. Every pass with one seed draws the
// same inputs, so repeating a pass repeats it exactly. The seed goes
// through the splitmix64 finalizer first: sim.Rand's first draw from a
// small seed is nearly proportional to it, and neighbouring seeds should
// draw unrelated inputs.
func (p pass) rand() *sim.Rand {
	z := p.seed + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return sim.NewRand(z ^ z>>31)
}

// jitter lengthens d by a seed-drawn 0–1 ms. Applied to the warmup and the
// window, it makes each seed measure the steady state from another instant
// and over a slightly different span; the load itself has no randomness.
func jitter(r *sim.Rand, d sim.Duration) sim.Duration {
	return d + r.Duration(sim.Millisecond)
}

// window is what one measured span observed.
type window struct {
	ops      float64                 // operations completed
	span     sim.Duration            // virtual time measured
	d        snapshot                // layer counter deltas over the span
	cpu      map[string]sim.Duration // busy time per CPU account over the span
	maxBatch uint64                  // deepest uchan downcall batch

	p50, p99 float64 // end-to-end latency, µs
	samples  uint64  // latency samples behind p50/p99
	failed   uint64  // operations that failed or were retried

	kills []diskperf.RecoveryResult // blk_kill's recoveries

	allocBytes uint64  // host bytes allocated over the span
	hostNs     float64 // host wall time over the span
	heapMB     float64 // live host heap at the end of the span

	events  []trace.Event // spans recorded when traced
	dropped uint64        // span events lost to the tracer's cap

	checks []string // output checks that failed
}

func (w *window) check(ok bool, format string, args ...any) {
	if !ok {
		w.checks = append(w.checks, fmt.Sprintf(format, args...))
	}
}

// steady measures one fixed window of a load that call starts, warms up for
// warm, measures for span and stops (MinWindows = MaxWindows = 1). The
// layer baseline is read by a loop event at the end of the warmup, the
// instant the harness resets the CPU accounts, so counters and CPU cover
// the same span. The event reads only; the simulation does not change.
func steady(b *bed, warm, span sim.Duration, traced bool, call func() (rate float64, err error)) (*window, error) {
	var base snapshot
	var alloc0 uint64
	var t0 time.Time
	b.m.Loop.At(b.m.Now()+warm, func() {
		base = b.snap()
		if traced {
			b.m.Trace.Enable()
		}
		alloc0, t0 = totalAlloc(), time.Now()
	})
	rate, err := call()
	if err != nil {
		return nil, err
	}
	w := &window{
		hostNs:     float64(time.Since(t0).Nanoseconds()),
		allocBytes: totalAlloc() - alloc0,
		ops:        math.Round(rate * span.Seconds()),
		span:       span,
		d:          b.snap().sub(base),
		cpu:        cpuBusy(b.m),
		maxBatch:   b.maxDownBatch(),
		events:     b.m.Trace.Events(),
		dropped:    b.m.Trace.Dropped(),
	}
	w.heapMB = liveHeapMB()
	runtime.KeepAlive(b)
	w.failed = w.d.n["uchan.dropped_full"] + w.d.n["proxy.rejects"] + w.d.n["blockdev.errors"] +
		w.d.n["kv.retrans"] + w.d.n["kv.send_errs"] + w.d.n["kvserve.server_errs"] + w.d.n["kvserve.persist_errs"]
	return w, nil
}

// latency sets the end-to-end percentiles from one merged histogram.
func (w *window) latency(h trace.Hist) {
	w.p50, w.p99, w.samples = quantileUS(&h, 0.50), quantileUS(&h, 0.99), h.Count()
}

// confined is the net workloads' output check: the proxy rejected nothing
// and no DMA was refused, so every frame crossed the boundary intact.
func (w *window) confined() {
	w.check(w.d.n["proxy.rejects"] == 0, "proxy rejected %d driver messages", w.d.n["proxy.rejects"])
	w.check(w.d.n["hw.dma_errors"] == 0, "fabric refused %d DMAs", w.d.n["hw.dma_errors"])
}

func netOpt(warm, span sim.Duration) netperf.Options {
	return netperf.Options{Warmup: warm, Window: span, MinWindows: 1, MaxWindows: 1}
}

var plat = hw.DefaultPlatform()

var workloads = []workload{
	{name: "rr", boot: bootErr(bootRR), measure: measureRR},
	{name: "net_bidi", boot: bootErr(bootBidi), measure: measureBidi},
	{name: "blk_read", boot: bootErr(bootRead), measure: measureRead},
	{name: "blk_fsync", boot: bootErr(bootFsync), measure: measureFsync},
	{name: "kv", boot: bootErr(bootKV), measure: measureKV},
	{name: "blk_kill", boot: bootErr(bootKill), measure: measureKill},
}

func bootErr[T any](boot func() (T, error)) func() error {
	return func() error { _, err := boot(); return err }
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- rr: Figure 8 UDP_RR ----------------------------------------------------

func bootRR() (*netperf.Testbed, error) { return netperf.NewTestbed(netperf.ModeSUD, plat) }

func measureRR(p pass) (*window, error) {
	tb, err := bootRR()
	if err != nil {
		return nil, err
	}
	clock := &rrClock{remote: tb.Remote, loop: tb.M.Loop}
	tb.Link.Connect(tb.NIC, clock)
	b := &bed{m: tb.M, live: func() []*sudml.Process { return []*sudml.Process{tb.Proc} }, nic: tb.NIC, ifc: tb.Ifc,
		rtt: &clock.rtt}
	r := p.rand()
	opt := netOpt(jitter(r, p.span(30*sim.Millisecond)), jitter(r, p.window(10*sim.Second, sim.Second)))
	w, err := steady(b, opt.Warmup, opt.Window, p.traced, func() (float64, error) {
		r, err := netperf.UDPRR(tb, opt)
		return r.Value, err
	})
	if err != nil {
		return nil, err
	}
	w.latency(w.d.merged("client.rtt"))
	w.confined()
	return w, nil
}

// rrClock sits between the wire and the UDP_RR client and times the client's
// transactions. The client sends each request exactly Turnaround after the
// previous reply arrives, so a transaction's round trip is the gap between
// replies less Turnaround. It forwards every frame untouched, schedules
// nothing and charges nothing.
type rrClock struct {
	remote *netperf.RemoteHost
	loop   *sim.Loop
	last   sim.Time
	rtt    trace.Hist
}

func (c *rrClock) LinkDeliver(frame []byte) {
	n := c.remote.RRCount
	c.remote.LinkDeliver(frame)
	if c.remote.RRCount == n {
		return
	}
	now := c.loop.Now()
	if c.last != 0 {
		c.rtt.Record(now - c.last - c.remote.Turnaround)
	}
	c.last = now
}

// --- net_bidi: 64 B multiflow in both directions ----------------------------

func bootBidi() (*netperf.MultiFlowTestbed, error) { return netperf.NewMultiFlowTestbedFlip(4, plat) }

func measureBidi(p pass) (*window, error) {
	tb, err := bootBidi()
	if err != nil {
		return nil, err
	}
	b := &bed{m: tb.M, live: func() []*sudml.Process { return []*sudml.Process{tb.EthProc, tb.Ne2kProc} },
		nic: tb.Nic, ifc: tb.EthIfc}
	r := p.rand()
	opt := netOpt(jitter(r, p.span(30*sim.Millisecond)), jitter(r, p.window(600*sim.Millisecond, 10*sim.Millisecond)))
	w, err := steady(b, opt.Warmup, opt.Window, p.traced, func() (float64, error) {
		r, err := netperf.MultiFlowDir(tb, 6, netperf.DirBidi, opt)
		return r.AggregateKpps * 1e3, err
	})
	if err != nil {
		return nil, err
	}
	w.latency(w.d.merged("netstack."))
	w.confined()
	return w, nil
}

// --- blk_read / blk_fsync: fio-style 4 KiB block I/O ------------------------

const (
	blkJobs  = 16
	blkDepth = 6
)

func blkBed(tb *diskperf.Testbed) *bed {
	live := func() []*sudml.Process { return []*sudml.Process{tb.Proc} }
	if tb.Sup != nil {
		live = func() []*sudml.Process { return []*sudml.Process{tb.Sup.Proc()} }
	}
	return &bed{m: tb.M, live: live, ctrl: tb.Ctrl, dev: tb.Dev}
}

// fillMedia writes a seed-drawn pattern over the whole medium and returns it.
func fillMedia(tb *diskperf.Testbed, r *sim.Rand) [][]byte {
	media := make([][]byte, tb.Dev.Geom.Blocks)
	for lba := range media {
		media[lba] = make([]byte, tb.Dev.Geom.BlockSize)
		r.Bytes(media[lba])
		tb.Ctrl.SeedMedia(uint64(lba), media[lba])
	}
	return media
}

func bootRead() (*diskperf.Testbed, error) { return diskperf.NewTestbedFlip(diskperf.ModeSUD, 4, plat) }

func measureRead(p pass) (*window, error) {
	tb, err := bootRead()
	if err != nil {
		return nil, err
	}
	r := p.rand()
	media := fillMedia(tb, r)
	opt := netOpt(jitter(r, p.span(30*sim.Millisecond)), jitter(r, p.window(3*sim.Second, 15*sim.Millisecond)))
	w, err := steady(blkBed(tb), opt.Warmup, opt.Window, p.traced, func() (float64, error) {
		res, err := diskperf.BlockIOPS(tb, blkJobs, blkDepth, opt)
		return res.ReadKIOPS * 1e3, err
	})
	if err != nil {
		return nil, err
	}
	w.latency(w.d.merged("blockdev."))

	// Let the stopped load drain, then read seed-chosen blocks back through
	// the full SUD path.
	tb.M.Loop.RunFor(sim.Millisecond)
	const probes = 64
	got := 0
	for i := 0; i < probes; i++ {
		lba := uint64(r.Intn(len(media)))
		err := tb.Dev.ReadAt(lba, func(data []byte, err error) {
			got++
			w.check(err == nil && bytes.Equal(data, media[lba]), "read of LBA %d returned wrong data (err %v)", lba, err)
		})
		w.check(err == nil, "probe read of LBA %d refused: %v", lba, err)
	}
	tb.M.Loop.RunFor(10 * sim.Millisecond)
	w.check(got == probes, "%d of %d probe reads completed", got, probes)
	return w, nil
}

func bootFsync() (*diskperf.Testbed, error) {
	return diskperf.NewTestbedWC(diskperf.ModeSUD, 4, 64, plat)
}

// fsyncPayload is the block diskperf.BlockIOPSWrite writes.
func fsyncPayload(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func measureFsync(p pass) (*window, error) {
	tb, err := bootFsync()
	if err != nil {
		return nil, err
	}
	r := p.rand()
	fillMedia(tb, r)
	opt := netOpt(jitter(r, p.span(30*sim.Millisecond)), jitter(r, p.window(6*sim.Second, 40*sim.Millisecond)))
	w, err := steady(blkBed(tb), opt.Warmup, opt.Window, p.traced, func() (float64, error) {
		res, err := diskperf.BlockIOPSWrite(tb, blkJobs, blkDepth, 32, opt)
		return res.ReadKIOPS * 1e3, err
	})
	if err != nil {
		return nil, err
	}
	w.latency(w.d.merged("blockdev."))

	// After a final flush every acked write is on the medium. Job j's first
	// pipeline writes LBA j*977 + 13*s for s = 0, 1, ...; a quarter of the
	// mean per-pipeline count since boot is surely done, and every such
	// block must now hold the payload instead of the seeded pattern.
	flushed := false
	w.check(tb.Dev.Flush(func(err error) {
		flushed = true
		w.check(err == nil, "final flush failed: %v", err)
	}) == nil, "final flush refused")
	tb.M.Loop.RunFor(10 * sim.Millisecond)
	w.check(flushed, "final flush never completed")
	var acked uint64
	for q := 0; q < tb.Dev.NumQueues(); q++ {
		acked += tb.Dev.Queue(q).Completions
	}
	written := map[uint64]bool{}
	for j := uint64(0); j < blkJobs; j++ {
		for s := uint64(0); s < acked/(blkJobs*blkDepth)/4; s++ {
			written[(j*977+s*13)%tb.Dev.Geom.Blocks] = true
		}
	}
	payload := fsyncPayload(tb.Dev.Geom.BlockSize)
	bad := 0
	for lba := range written {
		if !bytes.Equal(tb.Ctrl.PeekMedia(lba), payload) {
			bad++
		}
	}
	w.check(len(written) > 0 && bad == 0, "%d of %d written blocks do not hold the payload", bad, len(written))
	return w, nil
}

// --- kv: the tenant KV service under supervision ----------------------------

func bootKV() (*tenantperf.Testbed, error) {
	return tenantperf.NewTestbed(tenantperf.Config{Mode: tenantperf.ModeSUD, Tenants: 4, Conns: 32, Queues: 4})
}

func measureKV(p pass) (*window, error) {
	tb, err := bootKV()
	if err != nil {
		return nil, err
	}
	b := &bed{m: tb.M, live: func() []*sudml.Process { return []*sudml.Process{tb.NetSup.Proc(), tb.BlkSup.Proc()} },
		nic: tb.Nic, ctrl: tb.Ctrl, ifc: tb.Ifc, dev: tb.Dev, kv: tb}
	r := p.rand()
	opt := tenantperf.Options{Warmup: jitter(r, p.span(20*sim.Millisecond)),
		Window: jitter(r, p.window(2*sim.Second, 25*sim.Millisecond)), MinWindows: 1, MaxWindows: 1}
	w, err := steady(b, opt.Warmup, opt.Window, p.traced, func() (float64, error) {
		r, err := tenantperf.Run(tb, opt)
		return r.TotalRPS, err
	})
	if err != nil {
		return nil, err
	}
	// The worst tenant's client round trip.
	for _, h := range w.d.hists("kv.t") {
		w.p50 = max(w.p50, quantileUS(&h, 0.50))
		w.p99 = max(w.p99, quantileUS(&h, 0.99))
		w.samples += h.Count()
	}
	for _, tl := range tb.Client.Tenants {
		srv := tb.Srv.Tenant(tl.ID)
		w.check(tl.Lat.Count() == tl.Replies, "tenant %d: %d latency samples for %d replies", tl.ID, tl.Lat.Count(), tl.Replies)
		w.check(srv.BadRequests+srv.ReplyErrs+srv.PersistErrs == 0, "tenant %d: server errors bad=%d reply=%d persist=%d",
			tl.ID, srv.BadRequests, srv.ReplyErrs, srv.PersistErrs)
	}
	return w, nil
}

// --- blk_kill: kill -9 of a supervised block driver under load --------------

const (
	killRuns  = 16
	killRunOf = 150 * sim.Millisecond
)

func bootKill() (*diskperf.Testbed, error) { return diskperf.NewSupervisedTestbed(2, plat) }

func measureKill(p pass) (*window, error) {
	r := p.rand()
	runs := max(int(math.Round(killRuns*p.scale)), 1)
	if p.short {
		runs = 1
	}
	// KillRecovery runs at least 50 ms past the kill; the traced pass stops
	// there.
	runFor := p.span(60*sim.Millisecond) + 50*sim.Millisecond
	if !p.short {
		runFor = max(runFor, p.span(killRunOf))
	}
	w := &window{d: newSnapshot(), cpu: map[string]sim.Duration{}}
	for i := 0; i < runs; i++ {
		tb, err := bootKill()
		if err != nil {
			return nil, err
		}
		b := blkBed(tb)
		killAt := p.span(40*sim.Millisecond) + r.Duration(p.span(20*sim.Millisecond))
		base, cpu0 := b.snap(), cpuBusy(tb.M)
		if p.traced {
			tb.M.Trace.Enable()
		}
		alloc0, t0 := totalAlloc(), time.Now()
		res, err := diskperf.KillRecovery(tb, 8, 4, killAt, runFor)
		if err != nil {
			return nil, err
		}
		w.hostNs += float64(time.Since(t0).Nanoseconds())
		w.allocBytes += totalAlloc() - alloc0
		w.d.add(b.snap().sub(base))
		for name, busy := range cpuBusy(tb.M) {
			w.cpu[name] += busy - cpu0[name]
		}
		w.maxBatch = max(w.maxBatch, b.maxDownBatch())
		w.ops += float64(res.Completed)
		w.span += runFor
		w.failed += res.Errors
		w.kills = append(w.kills, res)
		w.check(res.Errors == 0, "kill at %v: %d requests failed or returned wrong data", killAt, res.Errors)
		w.check(res.Restarts == 1, "kill at %v: %d restarts", killAt, res.Restarts)
		if p.traced {
			for _, ev := range tb.M.Trace.Events() {
				ev.Run = i
				w.events = append(w.events, ev)
			}
			w.dropped += tb.M.Trace.Dropped()
		}
		if i == runs-1 {
			w.heapMB = liveHeapMB()
			runtime.KeepAlive(b)
		}
	}
	w.latency(w.d.merged("blockdev."))
	return w, nil
}
