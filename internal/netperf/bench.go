package netperf

import (
	"errors"
	"fmt"
	"math"

	"sud/internal/fifo"
	"sud/internal/kernel/netstack"
	"sud/internal/sim"
)

// Application-level costs on the DUT (the netperf/netserver processes).
const (
	// costAppSend is the netperf send loop + syscall entry per sendto.
	costAppSend sim.Duration = 650
	// costAppRecv is the per-datagram receive work (amortised recvfrom).
	costAppRecv sim.Duration = 450
	// costAppRecvTCP is per-segment receive work with the big (87380 B)
	// receive buffers of the TCP test (fewer syscalls per byte).
	costAppRecvTCP sim.Duration = 250
	// appWakeLatency is the netserver process wakeup latency for the RR
	// ping-pong (the 4 µs §5.1 effect applies to the app too).
	appWakeLatency sim.Duration = 1500
)

// Options controls measurement windows and stopping.
type Options struct {
	Warmup     sim.Duration
	Window     sim.Duration
	MinWindows int
	MaxWindows int
	// Confidence: stop when the 99% CI is within ±HalfWidthFrac of the
	// mean (netperf's "accurate to 5%" = ±2.5%).
	HalfWidthFrac float64
}

// DefaultOptions mirror the paper's netperf configuration scaled to
// simulation-friendly windows.
func DefaultOptions() Options {
	return Options{
		Warmup:        30 * sim.Millisecond,
		Window:        200 * sim.Millisecond,
		MinWindows:    3,
		MaxWindows:    10,
		HalfWidthFrac: 0.025,
	}
}

// Result is one Figure 8 cell pair: throughput and CPU utilisation.
type Result struct {
	Benchmark string
	Mode      Mode
	Value     float64 // throughput in Unit
	Unit      string
	CPU       float64 // fraction of machine capacity, 0..1
	Windows   int
	CIRel     float64 // relative 99% CI half-width actually achieved
}

func (r Result) String() string {
	return fmt.Sprintf("%-14s %-17s %9.1f %-13s %5.1f%% CPU", r.Benchmark, r.Mode, r.Value, r.Unit, r.CPU*100)
}

// Student-t 99% two-sided critical values by degrees of freedom.
var tTable99 = []float64{0, 63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169}

func t99(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(tTable99) {
		return tTable99[df]
	}
	return 2.9
}

// measure runs windows until the CI converges. sample must return the
// window's throughput value; CPU is read from the machine's accounts.
func measure(tb *Testbed, opt Options, sample func(window sim.Duration) float64) (mean, cpu, ciRel float64, n int) {
	tb.M.Loop.RunFor(opt.Warmup)
	var vals, cpus []float64
	for len(vals) < opt.MaxWindows {
		start := tb.M.Now()
		tb.M.CPU.Reset(start)
		v := sample(opt.Window)
		vals = append(vals, v)
		cpus = append(cpus, tb.M.CPU.Utilization(tb.M.Now()))
		if len(vals) >= opt.MinWindows {
			m, hw := meanCI(vals)
			if m > 0 && hw/m <= opt.HalfWidthFrac {
				break
			}
		}
	}
	m, hw := meanCI(vals)
	cm, _ := meanCI(cpus)
	rel := 0.0
	if m > 0 {
		rel = hw / m
	}
	return m, cm, rel, len(vals)
}

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
	return mean, t99(len(vals)-1) * sd / math.Sqrt(n)
}

// TCPStream measures TCP receive throughput (Mbit/s): the remote streams
// MSS-sized segments at the DUT; 87380-byte receive buffers, delayed ACKs.
func TCPStream(tb *Testbed, opt Options) (Result, error) {
	recv, err := tb.K.Net.TCPListen(PortStream, func(n int) {
		tb.K.Acct.Charge(costAppRecvTCP)
	})
	if err != nil {
		return Result{}, err
	}
	defer tb.K.Net.TCPCloseListener(PortStream)
	tb.Remote.StartTCP()
	defer tb.Remote.StopTCP()

	mean, cpu, ci, n := measure(tb, opt, func(w sim.Duration) float64 {
		before := recv.RxBytes
		tb.M.Loop.RunFor(w)
		return float64(recv.RxBytes-before) * 8 / w.Seconds() / 1e6
	})
	return Result{Benchmark: "TCP_STREAM", Mode: tb.Mode, Value: mean, Unit: "Mbit/s", CPU: cpu, Windows: n, CIRel: ci}, nil
}

// UDPStreamTX measures DUT transmit rate for 64-byte datagrams (Kpkt/s,
// measured as delivered at the remote, as netperf reports).
func UDPStreamTX(tb *Testbed, opt Options) (Result, error) {
	payload := make([]byte, 64)
	stopped := false
	waiting := false
	var send func()
	send = func() {
		if stopped {
			return
		}
		before := tb.K.Acct.Busy()
		tb.K.Acct.Charge(costAppSend)
		err := tb.K.Net.UDPSendTo(tb.Ifc, RemoteMAC, RemoteIP, 50000, PortSink, payload)
		serial := tb.K.Acct.Busy() - before
		if err != nil {
			if errors.Is(err, netstack.ErrQueueStopped) {
				waiting = true // resume on WakeQueue
				return
			}
			// Transient failure: retry shortly.
			tb.M.Loop.After(10*sim.Microsecond, send)
			return
		}
		// The send path is serial on the app's core: the next sendto
		// issues after the path's CPU time has elapsed.
		tb.M.Loop.After(serial, send)
	}
	tb.Ifc.OnWake = func() {
		if waiting && !stopped {
			waiting = false
			// Blocked sender wakeup (scheduler cost + latency).
			tb.K.Acct.Charge(sim.CostProcessWakeup / 2)
			tb.M.Loop.After(appWakeLatency, send)
		}
	}
	defer func() { stopped = true; tb.Ifc.OnWake = nil }()
	send()

	mean, cpu, ci, n := measure(tb, opt, func(w sim.Duration) float64 {
		before := tb.Remote.SinkPkts
		tb.M.Loop.RunFor(w)
		return float64(tb.Remote.SinkPkts-before) / w.Seconds() / 1e3
	})
	return Result{Benchmark: "UDP_STREAM TX", Mode: tb.Mode, Value: mean, Unit: "Kpkt/s", CPU: cpu, Windows: n, CIRel: ci}, nil
}

// UDPStreamRX measures DUT receive rate for 64-byte datagrams (Kpkt/s
// delivered to the application).
func UDPStreamRX(tb *Testbed, opt Options) (Result, error) {
	sock, err := tb.K.Net.UDPBind(PortFlood, func(p []byte, _ netstack.IP, _ uint16) {
		tb.K.Acct.Charge(costAppRecv)
	})
	if err != nil {
		return Result{}, err
	}
	defer tb.K.Net.UDPClose(PortFlood)
	// Offered load: the Optiplex's transmit capability, above the DUT's
	// receive capacity so the DUT path is the bottleneck.
	tb.Remote.StartFlood(64, 330_000)
	defer tb.Remote.StopFlood()

	mean, cpu, ci, n := measure(tb, opt, func(w sim.Duration) float64 {
		before := sock.RxDatagrams
		tb.M.Loop.RunFor(w)
		return float64(sock.RxDatagrams-before) / w.Seconds() / 1e3
	})
	return Result{Benchmark: "UDP_STREAM RX", Mode: tb.Mode, Value: mean, Unit: "Kpkt/s", CPU: cpu, Windows: n, CIRel: ci}, nil
}

// UDPRR measures request/response transactions per second with 64-byte
// payloads — the latency-bound worst case for SUD (§5.1).
func UDPRR(tb *Testbed, opt Options) (Result, error) {
	srv := &echoServer{tb: tb}
	srv.echoFn = srv.echo
	_, err := tb.K.Net.UDPBind(PortRR, srv.recv)
	if err != nil {
		return Result{}, err
	}
	defer tb.K.Net.UDPClose(PortRR)
	tb.Remote.StartRR(64)
	defer tb.Remote.StopRR()

	mean, cpu, ci, n := measure(tb, opt, func(w sim.Duration) float64 {
		before := tb.Remote.RRCount
		tb.M.Loop.RunFor(w)
		return float64(tb.Remote.RRCount-before) / w.Seconds()
	})
	return Result{Benchmark: "UDP_RR", Mode: tb.Mode, Value: mean, Unit: "Tx/s", CPU: cpu, Windows: n, CIRel: ci}, nil
}

// echoServer is UDP_RR's netserver: it wakes from recv and echoes each
// datagram to its sender. Every echo fires appWakeLatency after its
// datagram arrived, so echoes fire in arrival order and the arrivals wait
// in FIFOs behind one bound callback.
type echoServer struct {
	tb       *Testbed
	payloads fifo.Bytes
	srcs     fifo.Queue[echoSrc]
	echoFn   func() // echo, bound once
}

// echoSrc is where an arrival came from.
type echoSrc struct {
	ip   netstack.IP
	port uint16
}

func (e *echoServer) recv(p []byte, srcIP netstack.IP, srcPort uint16) {
	e.payloads.Push(p)
	e.srcs.Push(echoSrc{srcIP, srcPort})
	e.tb.M.Loop.After(appWakeLatency, e.echoFn)
}

func (e *echoServer) echo() {
	tb := e.tb
	src := e.srcs.Pop()
	tb.K.Acct.Charge(sim.CostProcessWakeup)
	tb.K.Acct.Charge(costAppSend)
	_ = tb.K.Net.UDPSendTo(tb.Ifc, RemoteMAC, src.ip, PortRR, src.port, e.payloads.Peek())
	e.payloads.Pop()
}
