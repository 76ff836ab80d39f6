package netperf

import (
	"errors"
	"math"
	"testing"

	"sud/internal/hw"
	"sud/internal/kernel/netstack"
	"sud/internal/sim"
)

// quick returns fast measurement options for tests.
func quick() Options {
	return Options{
		Warmup:        10 * sim.Millisecond,
		Window:        50 * sim.Millisecond,
		MinWindows:    3,
		MaxWindows:    4,
		HalfWidthFrac: 0.05,
	}
}

func bed(t *testing.T, mode Mode) *Testbed {
	t.Helper()
	tb, err := NewTestbed(mode, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTCPStreamKernelSaturatesLink(t *testing.T) {
	tb := bed(t, ModeKernel)
	res, err := TCPStream(tb, quick())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 941 Mbit/s — a saturated Gigabit link.
	if res.Value < 900 || res.Value > 950 {
		t.Fatalf("TCP_STREAM kernel = %.1f Mbit/s, want ~941", res.Value)
	}
	if res.CPU <= 0.02 || res.CPU > 0.5 {
		t.Fatalf("CPU = %.1f%%, implausible", res.CPU*100)
	}
}

func TestTCPStreamSUDSameThroughput(t *testing.T) {
	k := bed(t, ModeKernel)
	s := bed(t, ModeSUD)
	rk, err := TCPStream(k, quick())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := TCPStream(s, quick())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 8's headline: same throughput, modest CPU overhead.
	if rs.Value < rk.Value*0.97 {
		t.Fatalf("SUD TCP throughput %.1f vs kernel %.1f: more than 3%% down", rs.Value, rk.Value)
	}
	if rs.CPU <= rk.CPU {
		t.Fatalf("SUD CPU %.1f%% not above kernel %.1f%%", rs.CPU*100, rk.CPU*100)
	}
	if rs.CPU > rk.CPU*2 {
		t.Fatalf("SUD TCP CPU %.1f%% more than 2x kernel %.1f%%", rs.CPU*100, rk.CPU*100)
	}
}

func TestUDPStreamTXRates(t *testing.T) {
	k := bed(t, ModeKernel)
	rk, err := UDPStreamTX(k, quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 317 Kpkt/s kernel. Engine-bound; expect the same decade.
	if rk.Value < 250 || rk.Value > 400 {
		t.Fatalf("kernel UDP TX = %.1f Kpkt/s, want ~317", rk.Value)
	}
	s := bed(t, ModeSUD)
	rs, err := UDPStreamTX(s, quick())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Value < rk.Value*0.9 {
		t.Fatalf("SUD TX rate %.1f more than 10%% below kernel %.1f", rs.Value, rk.Value)
	}
	if rs.CPU <= rk.CPU {
		t.Fatal("SUD TX CPU not above kernel")
	}
}

func TestUDPStreamRXRates(t *testing.T) {
	k := bed(t, ModeKernel)
	rk, err := UDPStreamRX(k, quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 238 Kpkt/s kernel (device receive engine bound).
	if rk.Value < 180 || rk.Value > 300 {
		t.Fatalf("kernel UDP RX = %.1f Kpkt/s, want ~238", rk.Value)
	}
	s := bed(t, ModeSUD)
	rs, err := UDPStreamRX(s, quick())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Value < rk.Value*0.9 {
		t.Fatalf("SUD RX rate %.1f more than 10%% below kernel %.1f", rs.Value, rk.Value)
	}
	if rs.CPU <= rk.CPU {
		t.Fatal("SUD RX CPU not above kernel")
	}
}

func TestUDPRRRatesAndCPUDoubling(t *testing.T) {
	k := bed(t, ModeKernel)
	rk, err := UDPRR(k, quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 9590 Tx/s kernel at ~5% CPU.
	if rk.Value < 8000 || rk.Value > 11000 {
		t.Fatalf("kernel UDP_RR = %.1f Tx/s, want ~9590", rk.Value)
	}
	s := bed(t, ModeSUD)
	rs, err := UDPRR(s, quick())
	if err != nil {
		t.Fatal(err)
	}
	// Rate within a few percent; CPU roughly doubles (the paper's 2x).
	if rs.Value < rk.Value*0.93 {
		t.Fatalf("SUD RR rate %.1f more than 7%% below kernel %.1f", rs.Value, rk.Value)
	}
	ratio := rs.CPU / rk.CPU
	if ratio < 1.4 || ratio > 3.0 {
		t.Fatalf("SUD RR CPU ratio = %.2fx (SUD %.1f%%, kernel %.1f%%), want ~2x",
			ratio, rs.CPU*100, rk.CPU*100)
	}
}

func TestConfidenceMachinery(t *testing.T) {
	m, hw99 := meanCI([]float64{10, 10, 10})
	if m != 10 || hw99 != 0 {
		t.Fatalf("meanCI deterministic = %v ± %v", m, hw99)
	}
	m, hw99 = meanCI([]float64{5})
	if m != 5 || hw99 <= 1e308 {
		// single sample: infinite CI
		t.Fatalf("single sample CI = %v", hw99)
	}
	if !math.IsInf(t99(0), 1) {
		t.Fatal("t99(0) should be +Inf")
	}
	if t99(1) != 63.657 || t99(100) != 2.9 {
		t.Fatal("t table lookup wrong")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Benchmark: "TCP_STREAM", Mode: ModeKernel, Value: 941, Unit: "Mbit/s", CPU: 0.12}
	if r.String() == "" {
		t.Fatal("empty result string")
	}
	if ModeKernel.String() == ModeSUD.String() {
		t.Fatal("mode strings identical")
	}
}

func TestTCPSenderGoBackN(t *testing.T) {
	// Lose one mid-stream segment on the wire; the receiver's duplicate
	// ACKs must trigger a go-back-N retransmission and the stream must
	// still deliver every byte in order.
	tb := bed(t, ModeKernel)
	var got uint64
	recv, err := tb.K.Net.TCPListen(PortStream, func(n int) { got += uint64(n) })
	if err != nil {
		t.Fatal(err)
	}
	tb.Remote.StartTCP()
	tb.M.Loop.RunFor(10 * sim.Millisecond)
	tb.Remote.DropNextSegment = true
	tb.M.Loop.RunFor(90 * sim.Millisecond)
	tb.Remote.StopTCP()
	if tb.Remote.Retrans == 0 {
		t.Fatal("no retransmissions despite FIFO overrun")
	}
	if recv.OutOfOrder == 0 {
		t.Fatal("receiver never saw the gap")
	}
	if got == 0 || got != recv.RxBytes {
		t.Fatalf("app bytes %d vs receiver bytes %d", got, recv.RxBytes)
	}
	// Everything ACKed was genuinely delivered in order (cumulative ACK
	// property of the receiver).
	if tb.Remote.TCPAcked == 0 || tb.Remote.TCPAcked > recv.RxBytes+MSS {
		t.Fatalf("acked %d vs delivered %d", tb.Remote.TCPAcked, recv.RxBytes)
	}
}

func TestFloodOfferedRateHonored(t *testing.T) {
	tb := bed(t, ModeKernel)
	tb.Remote.StartFlood(64, 100_000)
	tb.M.Loop.RunFor(50 * sim.Millisecond)
	tb.Remote.StopFlood()
	// 100 Kpps for 50 ms ≈ 5000 frames (±1 tick).
	if tb.Remote.FloodSent < 4990 || tb.Remote.FloodSent > 5010 {
		t.Fatalf("flood sent %d frames, want ~5000", tb.Remote.FloodSent)
	}
}

// TestOversizedDatagramLeavesQueueRunning: in both modes, a datagram too big
// for one frame fails with netstack.ErrMsgSize before the driver sees it,
// and later datagrams still reach the remote sink — the largest that fits
// as a full-size frame. The driver used to refuse the frame, which stopped
// the TX queue with no wake ever to come.
func TestOversizedDatagramLeavesQueueRunning(t *testing.T) {
	for _, mode := range []Mode{ModeKernel, ModeSUD} {
		t.Run(mode.String(), func(t *testing.T) {
			tb := bed(t, mode)
			send := func(n int) error {
				return tb.K.Net.UDPSendTo(tb.Ifc, RemoteMAC, RemoteIP, 50000, PortSink, make([]byte, n))
			}
			for _, n := range []int{3000, 1600, netstack.MaxUDPPayload + 1} {
				if err := send(n); !errors.Is(err, netstack.ErrMsgSize) {
					t.Fatalf("%d-byte payload: err = %v, want ErrMsgSize", n, err)
				}
			}
			for _, n := range []int{netstack.MaxUDPPayload, 64} {
				if err := send(n); err != nil {
					t.Fatalf("%d-byte send after the rejects: %v", n, err)
				}
			}
			tb.M.Loop.RunFor(sim.Millisecond)
			if tb.Remote.SinkPkts != 2 || tb.Remote.SinkBytes != netstack.MaxUDPPayload+64 {
				t.Fatalf("sink got %d datagrams, %d bytes; want 2, %d", tb.Remote.SinkPkts, tb.Remote.SinkBytes, netstack.MaxUDPPayload+64)
			}
		})
	}
}
