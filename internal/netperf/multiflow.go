package netperf

import (
	"errors"
	"fmt"
	"strings"

	"sud/internal/devices/e1000"
	"sud/internal/devices/ne2k"
	"sud/internal/drivers/e1000e"
	"sud/internal/drivers/ne2kpci"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/pci"
	"sud/internal/proxy/ethproxy"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/trace"
)

// Multi-flow scale scenario: K concurrent 64-byte UDP flows spread across Q
// uchan ring pairs and two untrusted driver processes — the multi-queue
// e1000e on eth0 plus the legacy PIO ne2k-pci on eth1 — all on one simulated
// machine. The scenario runs in three directions: transmit (the DUT sends),
// receive (the remote floods K distinct flows, RSS-steered across the DUT's
// RX rings), and bidirectional. It measures what the single-ring transport
// of the paper's Figure 8 cannot: aggregate packet rate when the channel,
// the driver process and the device all scale per queue, in both directions.

// Addressing for the second (ne2k) segment.
var (
	Ne2kMAC    = netstack.MAC{0x00, 0x1B, 0x21, 0x77, 0x88, 0x99}
	Remote2MAC = netstack.MAC{0x00, 0x1B, 0x21, 0xAA, 0xBB, 0xCC}
	DUT2IP     = netstack.IP{10, 0, 1, 1}
	Remote2IP  = netstack.IP{10, 0, 1, 2}
)

// MultiFlowTestbed is the two-NIC, two-driver-process DUT.
type MultiFlowTestbed struct {
	Queues int
	Flip   bool // zero-copy RX path: page-aware e1000e + GuardPageFlip proxy

	M *hw.Machine
	K *kernel.Kernel

	Nic *e1000.NIC // the fast NIC (doorbell ground truth)

	EthProc  *sudml.Process // multi-queue e1000e
	Ne2kProc *sudml.Process // single-queue legacy PIO driver

	EthIfc, Ne2kIfc       *netstack.Iface
	EthRemote, Ne2kRemote *RemoteHost
}

// ScaleCores is the multi-flow DUT's core count: unlike the Figure 8
// reproduction (the dual-core X301), the scale scenario models a
// server-class machine with a core per flow plus headroom, so reported CPU
// stays a fraction of capacity.
const ScaleCores = 16

// NewMultiFlowTestbed boots a machine with both NICs driven by untrusted
// processes; the e1000e uses `queues` TX queues end to end (device engines,
// driver rings, uchan ring pairs, proxy slot partitions).
func NewMultiFlowTestbed(queues int, plat hw.Platform) (*MultiFlowTestbed, error) {
	return newMultiFlowTestbed(queues, false, plat)
}

// NewMultiFlowTestbedFlip is NewMultiFlowTestbed with the zero-copy RX fast
// path on the e1000e: the driver is built page-aware (descriptor re-arm
// deferred to the recycle lane, TDT staged to drain end) and its proxy
// guards received frames by page-flip instead of the fused copy. The ne2k
// segment is untouched — a legacy PIO driver has no pages to flip.
func NewMultiFlowTestbedFlip(queues int, plat hw.Platform) (*MultiFlowTestbed, error) {
	return newMultiFlowTestbed(queues, true, plat)
}

func newMultiFlowTestbed(queues int, flip bool, plat hw.Platform) (*MultiFlowTestbed, error) {
	if queues < 1 {
		queues = 1
	}
	if queues > e1000.MaxTxQueues {
		queues = e1000.MaxTxQueues
	}
	if plat.Cores == 0 {
		plat.Cores = ScaleCores
	}
	m := hw.NewMachine(plat)
	k := kernel.New(m)

	// Fast NIC: multi-queue e1000 on its own gigabit segment.
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, [6]byte(DUTMAC), e1000.MultiQueueParams(queues))
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	remote := NewRemote(m.Loop, link, 1)
	link.Connect(nic, remote)
	nic.AttachLink(link, 0)

	// Legacy NIC: NE2000 PIO card on a second segment.
	card := ne2k.New(m.Loop, pci.MakeBDF(1, 1, 0), 0xC000, [6]byte(Ne2kMAC))
	m.AttachDevice(card)
	link2 := ethlink.NewGigabit(m.Loop, 300)
	remote2 := NewRemote(m.Loop, link2, 1)
	link2.Connect(card, remote2)
	card.AttachLink(link2, 0)

	tb := &MultiFlowTestbed{
		Queues: queues, Flip: flip, M: m, K: k, Nic: nic,
		EthRemote: remote, Ne2kRemote: remote2,
	}
	drv := e1000e.NewQ(queues)
	if flip {
		drv = e1000e.NewFlipQ(queues)
	}
	var err error
	if tb.EthProc, err = sudml.StartQ(k, nic, drv, "e1000e", 1001, queues); err != nil {
		return nil, err
	}
	if flip {
		// Strictly paired with NewFlipQ: the page-aware driver re-arms RX
		// descriptors only on recycle, which only the GuardPageFlip proxy
		// drives.
		tb.EthProc.Eth.GuardMode = ethproxy.GuardPageFlip
	}
	if tb.Ne2kProc, err = sudml.Start(k, card, ne2kpci.New(), "ne2k-pci", 1002); err != nil {
		return nil, err
	}
	// The ne2k asked for eth0 too; the netdev core renamed it eth1.
	if tb.EthIfc, err = k.Net.Iface("eth0"); err != nil {
		return nil, err
	}
	if tb.Ne2kIfc, err = k.Net.Iface("eth1"); err != nil {
		return nil, err
	}
	if err := tb.EthIfc.Up(DUTIP); err != nil {
		return nil, err
	}
	if err := tb.Ne2kIfc.Up(DUT2IP); err != nil {
		return nil, err
	}
	m.Loop.RunFor(100 * sim.Microsecond)
	return tb, nil
}

// Direction selects which way the multi-flow scenario pushes traffic.
type Direction int

const (
	// DirTX: the DUT transmits K flows (the PR-1 scenario).
	DirTX Direction = iota
	// DirRX: the remote floods K distinct flows at the DUT; RSS steering
	// fans them across the e1000e's RX rings.
	DirRX
	// DirBidi runs both at once.
	DirBidi
)

func (d Direction) String() string {
	switch d {
	case DirRX:
		return "rx"
	case DirBidi:
		return "bidi"
	default:
		return "tx"
	}
}

// MarshalJSON records the direction by name, keeping the perf-trajectory
// JSON self-describing.
func (d Direction) MarshalJSON() ([]byte, error) {
	return []byte(`"` + d.String() + `"`), nil
}

// UnmarshalJSON parses the recorded name (the benchgate regression gate
// reads trajectory files back). An unknown name is an error — a corrupted
// baseline must fail the load, not silently band against the wrong row.
func (d *Direction) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"tx"`:
		*d = DirTX
	case `"rx"`:
		*d = DirRX
	case `"bidi"`:
		*d = DirBidi
	default:
		return fmt.Errorf("netperf: unknown direction %s", b)
	}
	return nil
}

// RX flood parameters: per-flow offered rate (the aggregate is far above
// both the wire and the DUT's receive capacity, so the DUT path is the
// bottleneck under test) and the flows' source-port base (distinct ports =
// distinct RSS steering).
const (
	rxFloodPerFlowPPS = 250_000
	rxFloodBaseSport  = 53000
)

// QueueReport is one uchan ring pair's transport activity over the
// measurement span.
type QueueReport struct {
	Queue                                               int
	Upcalls, Downcalls, Doorbells, Wakeups, SpinPickups uint64
	DoorbellsPerSec                                     float64

	// P50US / P99US are end-to-end latency percentiles for this queue
	// over the measured span, from the always-on histograms: device DMA →
	// stack delivery for received frames (merged with transmit
	// submit → credit), or block dispatch → completion for block I/O.
	// Zero when the queue carried no measured traffic.
	P50US float64 `json:",omitempty"`
	P99US float64 `json:",omitempty"`
}

// MultiFlowResult aggregates the scenario's measurements.
type MultiFlowResult struct {
	Queues, Flows int
	Direction     Direction

	AggregateKpps float64 // delivered, both devices and directions
	EthKpps       float64 // DUT transmit, delivered at the eth remote
	Ne2kKpps      float64 // DUT transmit, delivered at the ne2k remote
	RxKpps        float64 // DUT receive, delivered to the application
	CPU           float64

	// Wakeups counts driver service-thread wakes across all rings and
	// the urgent lane (the §5.1 cost multi-queue amortises per ring).
	Wakeups uint64

	// RxFramesPerDoorbell is how many received frames one driver-side
	// doorbell delivered on average — the batched-delivery payoff. With
	// batching ablated (one message and one doorbell per frame) it falls
	// toward 1. The denominator is every downcall doorbell on the eth
	// channel, so in the bidi direction TX completions share it and the
	// ratio reads lower than the pure-RX run — it is the channel's
	// overall doorbell efficiency, not an RX-only number.
	RxFramesPerDoorbell float64
	// MaxDownBatch is the deepest downcall batch one doorbell flushed.
	MaxDownBatch uint64

	// Zero-copy fast-path metrics (Flip testbeds; zero otherwise).
	// GuardBytesPerFrame is how many payload bytes the proxy guard-copied
	// per frame delivered to the application — the full frame under the
	// fused guard, ~0 under GuardPageFlip where only batch-boundary
	// partial pages fall back to the copy. TxDoorbellsPerPkt is TDT MMIO
	// arrivals at the device per packet delivered on the eth segment (the
	// submit-side coalescing metric — ~1 uncoalesced, below it when
	// staged tails flush once per upcall batch). PagesFlipped counts RX
	// pages whose ownership transferred in the measured span.
	Flip               bool    `json:",omitempty"`
	GuardBytesPerFrame float64 `json:",omitempty"`
	TxDoorbellsPerPkt  float64 `json:",omitempty"`
	PagesFlipped       uint64  `json:",omitempty"`

	// LatP50US / LatP99US are the per-queue latency distributions merged
	// across all queues — the headline end-to-end numbers BENCH_latency.json
	// carries. Populated only under SUD (the proxies record the histograms).
	LatP50US float64 `json:",omitempty"`
	LatP99US float64 `json:",omitempty"`

	PerQueue []QueueReport
	Windows  int
	CIRel    float64
}

func (r MultiFlowResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MULTI_FLOW %s Q=%d K=%d %9.1f Kpkt/s aggregate (tx e1000e %.1f + ne2k %.1f, rx %.1f) %5.1f%% CPU, %d wakes",
		r.Direction, r.Queues, r.Flows, r.AggregateKpps, r.EthKpps, r.Ne2kKpps, r.RxKpps, r.CPU*100, r.Wakeups)
	if r.Direction != DirTX {
		fmt.Fprintf(&b, ", %.1f rx frames/doorbell (max batch %d)", r.RxFramesPerDoorbell, r.MaxDownBatch)
	}
	if r.Flip {
		fmt.Fprintf(&b, ", flip: %.1f guard B/frame, %.2f tdt/pkt, %d pages flipped",
			r.GuardBytesPerFrame, r.TxDoorbellsPerPkt, r.PagesFlipped)
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

// MultiFlowDir runs K concurrent 64-byte UDP flows in the given direction
// and reports aggregate throughput plus per-queue transport rates.
//
// Transmit flows are pinned to devices up front: with K >= 2 the last flow
// drives the ne2k segment (self-paced by the card's TXP busy time) and the
// rest drive the e1000e, whose per-flow source ports spread them across the
// TX queues by flow hash. Receive flows flood from the eth remote with
// distinct source ports, so the device's RSS steering spreads them across
// the RX rings and each ring's frames arrive on its own uchan queue in
// batched downcalls.
func MultiFlowDir(tb *MultiFlowTestbed, flows int, dir Direction, opt Options) (MultiFlowResult, error) {
	if flows < 1 {
		return MultiFlowResult{}, fmt.Errorf("netperf: need at least one flow")
	}
	payload := make([]byte, 64)
	stopped := false

	// Parked send loops per interface, resumed in FIFO order on WakeQueue
	// (slices, not a map, to keep the event order deterministic).
	var ethWaiters, ne2kWaiters []func()
	park := func(ifc *netstack.Iface, resume func()) {
		if ifc == tb.EthIfc {
			ethWaiters = append(ethWaiters, resume)
		} else {
			ne2kWaiters = append(ne2kWaiters, resume)
		}
	}
	hookWake := func(ifc *netstack.Iface, list *[]func()) {
		ifc.OnWake = func() {
			if stopped {
				return
			}
			// Resumes only get scheduled here, so nothing parks while
			// the list is walked and its storage is reused.
			for _, w := range *list {
				// Blocked sender wakeup (scheduler cost + latency).
				tb.K.Acct.Charge(sim.CostProcessWakeup / 2)
				tb.M.Loop.After(appWakeLatency, w)
			}
			*list = (*list)[:0]
		}
	}
	hookWake(tb.EthIfc, &ethWaiters)
	hookWake(tb.Ne2kIfc, &ne2kWaiters)
	defer func() {
		stopped = true
		tb.EthIfc.OnWake = nil
		tb.Ne2kIfc.OnWake = nil
	}()

	startFlow := func(ifc *netstack.Iface, dstMAC netstack.MAC, dstIP netstack.IP, sport uint16) {
		var send func()
		send = func() {
			if stopped {
				return
			}
			before := tb.K.Acct.Busy()
			tb.K.Acct.Charge(costAppSend)
			err := tb.K.Net.UDPSendTo(ifc, dstMAC, dstIP, sport, PortSink, payload)
			serial := tb.K.Acct.Busy() - before
			if err != nil {
				if errors.Is(err, netstack.ErrQueueStopped) {
					park(ifc, send)
					return
				}
				tb.M.Loop.After(10*sim.Microsecond, send)
				return
			}
			// The send path is serial on the flow's core: the next
			// sendto issues after its CPU time has elapsed. Device
			// backpressure (e1000e ring full, ne2k TXP busy) parks the
			// flow instead of any artificial pacing.
			tb.M.Loop.After(serial, send)
		}
		send()
	}
	if dir != DirRX {
		for i := 0; i < flows; i++ {
			if flows >= 2 && i == flows-1 {
				startFlow(tb.Ne2kIfc, Remote2MAC, Remote2IP, uint16(52000+i))
				continue
			}
			startFlow(tb.EthIfc, RemoteMAC, RemoteIP, uint16(52000+i))
		}
	}

	// Receive direction: a netserver-style sink plus K distinct remote
	// flows; RSS steering fans them across the e1000e's RX rings.
	var rxSock *netstack.UDPSock
	if dir != DirTX {
		var err error
		rxSock, err = tb.K.Net.UDPBind(PortFlood, func(p []byte, _ netstack.IP, _ uint16) {
			tb.K.Acct.Charge(costAppRecv)
		})
		if err != nil {
			return MultiFlowResult{}, err
		}
		defer tb.K.Net.UDPClose(PortFlood)
		tb.EthRemote.StartFloodFlows(64, rxFloodPerFlowPPS, flows, rxFloodBaseSport, PortFlood)
		defer tb.EthRemote.StopFloodFlows()
	}

	tb.M.Loop.RunFor(opt.Warmup)

	// Baselines after warmup, so rates cover the measured span only.
	ethBase, ne2kBase := tb.EthRemote.SinkPkts, tb.Ne2kRemote.SinkPkts
	var rxBase uint64
	if rxSock != nil {
		rxBase = rxSock.RxDatagrams
	}
	guardBase := tb.EthProc.Eth.GuardCopiedBytes
	flippedBase := tb.EthProc.Eth.PagesFlipped
	tdtBase := tb.Nic.TDTWrites
	qBase := make([]QueueReport, tb.Queues)
	rxLatBase := make([]trace.Hist, tb.Queues)
	txLatBase := make([]trace.Hist, tb.Queues)
	for q := range qBase {
		s := tb.EthProc.Chan.QueueStats(q)
		qBase[q] = QueueReport{Queue: q, Upcalls: s.Upcalls, Downcalls: s.Downcalls,
			Doorbells: s.Doorbells, Wakeups: s.Wakeups, SpinPickups: s.SpinPickups}
		iq := tb.EthIfc.Queue(q)
		rxLatBase[q], txLatBase[q] = iq.RxLat.Clone(), iq.TxLat.Clone()
	}
	wakeBase := tb.EthProc.Chan.Stats().Wakeups + tb.Ne2kProc.Chan.Stats().Wakeups

	rxDelivered := func() uint64 {
		if rxSock == nil {
			return 0
		}
		return rxSock.RxDatagrams
	}

	var vals, cpus []float64
	for len(vals) < opt.MaxWindows {
		start := tb.M.Now()
		tb.M.CPU.Reset(start)
		ethBefore, ne2kBefore := tb.EthRemote.SinkPkts, tb.Ne2kRemote.SinkPkts
		rxBefore := rxDelivered()
		tb.M.Loop.RunFor(opt.Window)
		delta := (tb.EthRemote.SinkPkts - ethBefore) + (tb.Ne2kRemote.SinkPkts - ne2kBefore) +
			(rxDelivered() - rxBefore)
		vals = append(vals, float64(delta)/opt.Window.Seconds()/1e3)
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
	res := MultiFlowResult{
		Queues: tb.Queues, Flows: flows, Direction: dir,
		AggregateKpps: mean,
		EthKpps:       float64(tb.EthRemote.SinkPkts-ethBase) / span.Seconds() / 1e3,
		Ne2kKpps:      float64(tb.Ne2kRemote.SinkPkts-ne2kBase) / span.Seconds() / 1e3,
		RxKpps:        float64(rxDelivered()-rxBase) / span.Seconds() / 1e3,
		CPU:           cpu,
		Wakeups:       tb.EthProc.Chan.Stats().Wakeups + tb.Ne2kProc.Chan.Stats().Wakeups - wakeBase,
		MaxDownBatch:  tb.EthProc.Chan.Stats().MaxDownBatch,
		Windows:       len(vals),
	}
	if mean > 0 {
		res.CIRel = hw99 / mean
	}
	var doorbells uint64
	var allLat trace.Hist
	for q := range qBase {
		s := tb.EthProc.Chan.QueueStats(q)
		r := QueueReport{
			Queue:       q,
			Upcalls:     s.Upcalls - qBase[q].Upcalls,
			Downcalls:   s.Downcalls - qBase[q].Downcalls,
			Doorbells:   s.Doorbells - qBase[q].Doorbells,
			Wakeups:     s.Wakeups - qBase[q].Wakeups,
			SpinPickups: s.SpinPickups - qBase[q].SpinPickups,
		}
		r.DoorbellsPerSec = float64(r.Doorbells) / span.Seconds()
		iq := tb.EthIfc.Queue(q)
		lat := iq.RxLat.Sub(&rxLatBase[q])
		txl := iq.TxLat.Sub(&txLatBase[q])
		lat.Merge(&txl)
		if lat.Count() > 0 {
			r.P50US, r.P99US = lat.PercentileUS(0.50), lat.PercentileUS(0.99)
		}
		allLat.Merge(&lat)
		res.PerQueue = append(res.PerQueue, r)
		doorbells += r.Doorbells
	}
	if rxFrames := rxDelivered() - rxBase; rxFrames > 0 && doorbells > 0 {
		res.RxFramesPerDoorbell = float64(rxFrames) / float64(doorbells)
	}
	if allLat.Count() > 0 {
		res.LatP50US = allLat.PercentileUS(0.50)
		res.LatP99US = allLat.PercentileUS(0.99)
	}
	res.Flip = tb.Flip
	res.PagesFlipped = tb.EthProc.Eth.PagesFlipped - flippedBase
	if rxFrames := rxDelivered() - rxBase; rxFrames > 0 {
		res.GuardBytesPerFrame = float64(tb.EthProc.Eth.GuardCopiedBytes-guardBase) / float64(rxFrames)
	}
	if ethPkts := tb.EthRemote.SinkPkts - ethBase; ethPkts > 0 {
		res.TxDoorbellsPerPkt = float64(tb.Nic.TDTWrites-tdtBase) / float64(ethPkts)
	}
	return res, nil
}
