// Package diskperf is the block-I/O measurement harness — the storage
// sibling of internal/netperf. It boots a DUT machine with the NVMe-lite
// controller, runs the nvmed driver either trusted in-kernel or inside an
// untrusted SUD process with Q uchan ring pairs, and measures 4 KiB random
// read IOPS under J concurrent jobs each keeping D requests outstanding —
// an fio-style workload in deterministic virtual time. Per-queue transport
// rates (doorbells, wakes, completion batching) are reported the way the
// multi-flow network harness reports them, so the block path's multi-queue
// scaling is measured with the same vocabulary.
package diskperf

import (
	"fmt"
	"math"
	"strings"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/nvmed"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/blockdev"
	"sud/internal/netperf"
	"sud/internal/pci"
	"sud/internal/proxy/blkproxy"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/trace"
)

// Mode selects the hosting configuration under test.
type Mode int

const (
	// ModeKernel is the trusted baseline: nvmed runs in the kernel.
	ModeKernel Mode = iota
	// ModeSUD hosts nvmed in an untrusted user-space process.
	ModeSUD
)

func (m Mode) String() string {
	if m == ModeKernel {
		return "kernel"
	}
	return "sud"
}

// MarshalJSON records the mode by name.
func (m Mode) MarshalJSON() ([]byte, error) { return []byte(`"` + m.String() + `"`), nil }

// UnmarshalJSON parses the recorded name (the benchgate regression gate
// reads trajectory files back). An unknown name is an error — a corrupted
// baseline must fail the load, not silently band against the wrong row.
func (m *Mode) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"kernel"`:
		*m = ModeKernel
	case `"sud"`:
		*m = ModeSUD
	default:
		return fmt.Errorf("diskperf: unknown mode %s", b)
	}
	return nil
}

// Application-side costs per I/O (submission syscall, completion wake).
const (
	costAppSubmit sim.Duration = 700
	costAppReap   sim.Duration = 500
)

// ScaleCores is the block DUT's core count: like the multi-flow network
// scenario it models a server-class machine, so the device — not the CPU —
// is the bottleneck under test.
const ScaleCores = 16

// Testbed is one block DUT.
type Testbed struct {
	Mode   Mode
	Queues int
	Flip   bool // zero-copy read path: page-aware nvmed + GuardPageFlip proxy

	M    *hw.Machine
	K    *kernel.Kernel
	Ctrl *nvme.Ctrl
	Proc *sudml.Process    // nil under ModeKernel
	Sup  *sudml.Supervisor // non-nil only for supervised testbeds
	Dev  *blockdev.Dev
}

// NewTestbed boots a machine with the NVMe-lite controller driven by nvmed
// in the given mode, with `queues` I/O queue pairs end to end (device
// engines, driver queue pairs, and — under SUD — uchan ring pairs).
func NewTestbed(mode Mode, queues int, plat hw.Platform) (*Testbed, error) {
	return NewTestbedWC(mode, queues, 0, plat)
}

// NewTestbedFlip is NewTestbed with the zero-copy read fast path enabled:
// the nvmed is built page-aware (slot lending, staged SQ doorbells,
// submit-path CQ polling) and the block proxy guards read completions by
// page-flip instead of copy. Only meaningful under ModeSUD — the trusted
// in-kernel baseline has no guard to amortise, so the flag is ignored there.
func NewTestbedFlip(mode Mode, queues int, plat hw.Platform) (*Testbed, error) {
	return newTestbed(mode, queues, 0, true, plat)
}

// NewTestbedWC is NewTestbed with a volatile write cache of cacheBlocks
// logical blocks on the controller (0 keeps the always-durable seed part —
// the Figure 8 / block-IOPS reference configuration, bit for bit).
func NewTestbedWC(mode Mode, queues, cacheBlocks int, plat hw.Platform) (*Testbed, error) {
	return newTestbed(mode, queues, cacheBlocks, false, plat)
}

// newBed boots the machine, kernel and NVMe-lite controller every block
// testbed starts from, with queues clamped to what the controller supports.
func newBed(mode Mode, queues, cacheBlocks int, plat hw.Platform) *Testbed {
	queues = min(max(queues, 1), nvme.MaxIOQueues)
	if plat.Cores == 0 {
		plat.Cores = ScaleCores
	}
	m := hw.NewMachine(plat)
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.CachedParams(queues, cacheBlocks))
	m.AttachDevice(ctrl)
	return &Testbed{Mode: mode, Queues: queues, M: m, K: k, Ctrl: ctrl}
}

func newTestbed(mode Mode, queues, cacheBlocks int, flip bool, plat hw.Platform) (*Testbed, error) {
	tb := newBed(mode, queues, cacheBlocks, plat)
	tb.Flip = flip && mode == ModeSUD
	k, ctrl, queues := tb.K, tb.Ctrl, tb.Queues
	switch mode {
	case ModeKernel:
		if _, err := k.BindInKernel(nvmed.NewQ(queues), ctrl); err != nil {
			return nil, err
		}
	case ModeSUD:
		drv := nvmed.NewQ(queues)
		if tb.Flip {
			drv = nvmed.NewFlipQ(queues)
		}
		proc, err := sudml.StartQ(k, ctrl, drv, "nvmed", 1003, queues)
		if err != nil {
			return nil, err
		}
		tb.Proc = proc
		if tb.Flip {
			// Strictly paired with NewFlipQ: the page-aware driver defers
			// slot reuse to the proxy's recycle lane, and the proxy only
			// runs it under GuardPageFlip.
			proc.Blk.GuardMode = blkproxy.GuardPageFlip
		}
	}
	return tb.up()
}

// up brings the testbed's nvme0 up and lets the driver settle.
func (tb *Testbed) up() (*Testbed, error) {
	dev, err := tb.K.Blk.Dev("nvme0")
	if err != nil {
		return nil, err
	}
	if err := dev.Up(); err != nil {
		return nil, err
	}
	tb.Dev = dev
	tb.M.Loop.RunFor(100 * sim.Microsecond)
	return tb, nil
}

// Result aggregates one block-IOPS measurement. ReadKIOPS carries the
// aggregate rate of whichever direction the workload ran (reads for
// BlockIOPS, writes for BlockIOPSWrite — the field name is kept for the
// recorded-trajectory schema); Write and FsyncEvery identify the write
// workload, and Flushes counts the barriers it completed.
type Result struct {
	Mode             Mode
	Queues, Jobs     int
	Depth            int
	Write            bool   `json:",omitempty"`
	FsyncEvery       int    `json:",omitempty"`
	Flushes          uint64 `json:",omitempty"`
	Flip             bool   `json:",omitempty"`
	ReadKIOPS        float64
	MBps             float64
	CPU              float64
	Wakeups          uint64
	CompsPerDoorbell float64
	MaxDownBatch     uint64

	// GuardBytesPerIO is how many completion-payload bytes the proxy
	// guard-copied per completed I/O (4096 under the copy guard, ~0 under
	// GuardPageFlip); SQDoorbellsPerIO is how many I/O SQ tail MMIO
	// writes reached the controller per completed I/O (the submit-side
	// coalescing metric — 1.0 uncoalesced, below it when staged doorbells
	// flush once per upcall batch). Both are measured at the ground
	// truth: the proxy's copy accounting and the device's register file.
	GuardBytesPerIO  float64 `json:",omitempty"`
	SQDoorbellsPerIO float64 `json:",omitempty"`

	// LatP50US / LatP99US are end-to-end request latency percentiles
	// (block-core dispatch → completion delivery) over the measured span,
	// merged across queues; PerQueue carries the per-queue split.
	LatP50US float64 `json:",omitempty"`
	LatP99US float64 `json:",omitempty"`

	PerQueue []netperf.QueueReport
	Windows  int
	CIRel    float64
}

func (r Result) String() string {
	var b strings.Builder
	label := "BLOCK_IOPS"
	if r.Write {
		label = "BLOCK_WIOPS"
	}
	fmt.Fprintf(&b, "%s %s Q=%d J=%d D=%d", label, r.Mode, r.Queues, r.Jobs, r.Depth)
	if r.Write {
		fmt.Fprintf(&b, " fsync=%d", r.FsyncEvery)
	}
	fmt.Fprintf(&b, " %9.1f Kiops (%.1f MB/s) %5.1f%% CPU, %d wakes",
		r.ReadKIOPS, r.MBps, r.CPU*100, r.Wakeups)
	if r.Write {
		fmt.Fprintf(&b, ", %d flushes", r.Flushes)
	}
	if r.Mode == ModeSUD {
		fmt.Fprintf(&b, ", %.1f comps/doorbell (max batch %d)", r.CompsPerDoorbell, r.MaxDownBatch)
	}
	if r.Flip {
		fmt.Fprintf(&b, ", flip: %.0f guard B/io, %.2f sq-doorbells/io", r.GuardBytesPerIO, r.SQDoorbellsPerIO)
	}
	if r.LatP99US > 0 {
		fmt.Fprintf(&b, ", lat p50 %.1fµs p99 %.1fµs", r.LatP50US, r.LatP99US)
	}
	b.WriteString("\n")
	for _, q := range r.PerQueue {
		fmt.Fprintf(&b, "  queue %d: %8d upcalls %8d downcalls %7d doorbells (%8.0f/s) %6d wakes %6d spin pickups",
			q.Queue, q.Upcalls, q.Downcalls, q.Doorbells, q.DoorbellsPerSec, q.Wakeups, q.SpinPickups)
		if q.P99US > 0 {
			fmt.Fprintf(&b, " lat p50 %.1fµs p99 %.1fµs", q.P50US, q.P99US)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// load is a closed-loop fio-style workload: jobs × depth pipes, each with
// one request outstanding along its job's LBA stride and the next issued
// the app's reap time after it completes (fio's io_depth); a refused one
// (ErrCongested) retries after retryDelay. Loaders differ only in hooks.
type load struct {
	tb      *Testbed
	span    uint64                                // LBAs the jobs stride over
	stopped bool                                  // nothing is issued or handled once set
	submit  func(p *pipe) error                   // issues p's request for p.lba
	done    func(p *pipe, data []byte, err error) // p's request completed
}

// pipe is one unit of a job's depth. Its event and callbacks are bound
// once, so a steady-state I/O allocates nothing on the host.
type pipe struct {
	*load
	job   int
	seq   uint64   // request number along the job's stride
	lba   uint64   // the outstanding request's block
	at    sim.Time // when the outstanding request was issued
	open  bool     // the outstanding request is not yet answered
	flush bool     // the outstanding request is a barrier

	next  sim.Event           // fires issue
	read  func([]byte, error) // done, for this pipe
	write func(error)         // done without data
}

const retryDelay = 10 * sim.Microsecond

// run starts the pipes, job-major, each issuing at once.
func (l *load) run(jobs, depth int) {
	pipes := make([]pipe, jobs*depth)
	for i := range pipes {
		p := &pipes[i]
		p.load, p.job, p.seq = l, i/depth, uint64(i%depth*100)
		p.next.Fn = p.issue
		p.read = func(data []byte, err error) {
			if !l.stopped {
				l.done(p, data, err)
			}
		}
		p.write = func(err error) { p.read(nil, err) }
		p.issue()
	}
}

func (p *pipe) issue() {
	if p.stopped {
		return
	}
	p.lba = (uint64(p.job)*977 + p.seq*13) % p.span
	p.tb.K.Acct.Charge(costAppSubmit)
	if err := p.submit(p); err != nil {
		p.tb.M.Loop.ArmAfter(&p.next, retryDelay)
	}
}

// advance moves the pipe to its next request, issued d from now.
func (p *pipe) advance(d sim.Duration) {
	p.seq++
	p.tb.M.Loop.ArmAfter(&p.next, d)
}

// reaped is the app reaping the pipe's completion: the next request goes
// out the reap time later.
func (p *pipe) reaped() {
	p.tb.K.Acct.Charge(costAppReap)
	p.advance(costAppReap)
}

// BlockIOPS runs jobs concurrent readers, each keeping depth single-block
// reads outstanding over a striding LBA pattern (steered across the queue
// pairs by the block core's LBA hash), and reports aggregate read IOPS.
func BlockIOPS(tb *Testbed, jobs, depth int, opt netperf.Options) (Result, error) {
	if jobs < 1 || depth < 1 {
		return Result{}, fmt.Errorf("diskperf: need at least one job and depth 1")
	}
	var completed uint64
	l := &load{tb: tb, span: tb.Dev.Geom.Blocks}
	l.submit = func(p *pipe) error { return tb.Dev.ReadAt(p.lba, p.read) }
	l.done = func(p *pipe, _ []byte, _ error) {
		completed++
		p.reaped()
	}
	l.run(jobs, depth)
	defer func() { l.stopped = true }()

	res := measureWindows(tb, opt, &completed)
	res.Jobs, res.Depth = jobs, depth
	return res, nil
}

// BlockIOPSWrite runs the write-side workload: jobs concurrent writers,
// each keeping depth single-block writes outstanding; with fsyncEvery > 0
// each pipeline issues a Flush barrier after every fsyncEvery acked writes
// and waits for it before continuing — fio's fsync=N behaviour, which is
// what bounds IOPS on a volatile-write-cache device. fsyncEvery = 0 never
// flushes (cache-speed writes).
func BlockIOPSWrite(tb *Testbed, jobs, depth, fsyncEvery int, opt netperf.Options) (Result, error) {
	if jobs < 1 || depth < 1 {
		return Result{}, fmt.Errorf("diskperf: need at least one job and depth 1")
	}
	var completed uint64
	payload := make([]byte, tb.Dev.Geom.BlockSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	// acked[j] counts job j's completed writes since its last flush; all
	// of job j's pipelines share the fsync cadence, as one fsyncing
	// process would. The pipe that flushes waits for the barrier, which
	// answers on its write callback.
	acked := make([]int, jobs)
	l := &load{tb: tb, span: tb.Dev.Geom.Blocks}
	l.submit = func(p *pipe) error { return tb.Dev.WriteAt(p.lba, payload, p.write) }
	l.done = func(p *pipe, _ []byte, _ error) {
		if p.flush {
			p.flush = false
			p.reaped()
			return
		}
		completed++
		tb.K.Acct.Charge(costAppReap)
		acked[p.job]++
		if fsyncEvery > 0 && acked[p.job] >= fsyncEvery {
			acked[p.job] = 0
			tb.K.Acct.Charge(costAppSubmit)
			p.flush = true
			if err := tb.Dev.Flush(p.write); err != nil {
				p.flush = false
				p.advance(retryDelay)
			}
			return
		}
		p.advance(costAppReap)
	}
	l.run(jobs, depth)
	defer func() { l.stopped = true }()

	flushBase := tb.Dev.Flushes
	res := measureWindows(tb, opt, &completed)
	res.Jobs, res.Depth = jobs, depth
	res.Write, res.FsyncEvery = true, fsyncEvery
	res.Flushes = tb.Dev.Flushes - flushBase
	return res, nil
}

// measureWindows runs the shared sampling loop: warmup, then fixed windows
// until the 99% confidence half-width tightens (or MaxWindows), recording
// the rate of *completed, the CPU, and — under SUD — the per-queue
// transport stats.
func measureWindows(tb *Testbed, opt netperf.Options, completed *uint64) Result {
	tb.M.Loop.RunFor(opt.Warmup)

	base := *completed
	sqdbBase := tb.Ctrl.SQDoorbellWrites
	latBase := make([]trace.Hist, tb.Queues)
	for q := range latBase {
		latBase[q] = tb.Dev.QueueLatency(q).Clone()
	}
	var qBase []netperf.QueueReport
	var wakeBase, guardBase uint64
	if tb.Proc != nil {
		guardBase = tb.Proc.Blk.GuardCopiedBytes
		qBase = make([]netperf.QueueReport, tb.Queues)
		for q := range qBase {
			s := tb.Proc.Chan.QueueStats(q)
			qBase[q] = netperf.QueueReport{Queue: q, Upcalls: s.Upcalls, Downcalls: s.Downcalls,
				Doorbells: s.Doorbells, Wakeups: s.Wakeups, SpinPickups: s.SpinPickups}
		}
		wakeBase = tb.Proc.Chan.Stats().Wakeups
	}

	var vals, cpus []float64
	for len(vals) < opt.MaxWindows {
		start := tb.M.Now()
		tb.M.CPU.Reset(start)
		before := *completed
		tb.M.Loop.RunFor(opt.Window)
		vals = append(vals, float64(*completed-before)/opt.Window.Seconds()/1e3)
		cpus = append(cpus, tb.M.CPU.Utilization(tb.M.Now()))
		if len(vals) >= opt.MinWindows {
			m, hw99 := meanCI(vals)
			if m > 0 && hw99/m <= opt.HalfWidthFrac {
				break
			}
		}
	}
	span := sim.Duration(len(vals)) * opt.Window

	mean, hw99 := meanCI(vals)
	cpu, _ := meanCI(cpus)
	res := Result{
		Mode: tb.Mode, Queues: tb.Queues, Flip: tb.Flip,
		ReadKIOPS: mean,
		MBps:      mean * 1e3 * float64(tb.Dev.Geom.BlockSize) / 1e6,
		CPU:       cpu,
		Windows:   len(vals),
	}
	if mean > 0 {
		res.CIRel = hw99 / mean
	}
	qLat := make([]trace.Hist, tb.Queues)
	var allLat trace.Hist
	for q := range qLat {
		qLat[q] = tb.Dev.QueueLatency(q).Sub(&latBase[q])
		allLat.Merge(&qLat[q])
	}
	if allLat.Count() > 0 {
		res.LatP50US = allLat.PercentileUS(0.50)
		res.LatP99US = allLat.PercentileUS(0.99)
	}
	if tb.Proc != nil {
		res.Wakeups = tb.Proc.Chan.Stats().Wakeups - wakeBase
		res.MaxDownBatch = tb.Proc.Chan.Stats().MaxDownBatch
		var doorbells uint64
		for q := range qBase {
			s := tb.Proc.Chan.QueueStats(q)
			r := netperf.QueueReport{
				Queue:       q,
				Upcalls:     s.Upcalls - qBase[q].Upcalls,
				Downcalls:   s.Downcalls - qBase[q].Downcalls,
				Doorbells:   s.Doorbells - qBase[q].Doorbells,
				Wakeups:     s.Wakeups - qBase[q].Wakeups,
				SpinPickups: s.SpinPickups - qBase[q].SpinPickups,
			}
			r.DoorbellsPerSec = float64(r.Doorbells) / span.Seconds()
			if qLat[q].Count() > 0 {
				r.P50US, r.P99US = qLat[q].PercentileUS(0.50), qLat[q].PercentileUS(0.99)
			}
			res.PerQueue = append(res.PerQueue, r)
			doorbells += r.Doorbells
		}
		if ios := *completed - base; ios > 0 && doorbells > 0 {
			res.CompsPerDoorbell = float64(ios) / float64(doorbells)
		}
	}
	if ios := *completed - base; ios > 0 {
		res.SQDoorbellsPerIO = float64(tb.Ctrl.SQDoorbellWrites-sqdbBase) / float64(ios)
		if tb.Proc != nil {
			res.GuardBytesPerIO = float64(tb.Proc.Blk.GuardCopiedBytes-guardBase) / float64(ios)
		}
	}
	return res
}

// meanCI returns the sample mean and the 99% confidence half-width
// (t≈2.58 for the small window counts used here).
func meanCI(vals []float64) (mean, halfWidth float64) {
	n := float64(len(vals))
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / n
	if len(vals) < 2 {
		return mean, math.Inf(1)
	}
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, 2.58 * sd / math.Sqrt(n)
}
