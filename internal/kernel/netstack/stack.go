package netstack

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/fifo"
	"sud/internal/kernel/shadow"
	"sud/internal/sim"
	"sud/internal/trace"
)

// Path costs of the stack itself, per packet, excluding per-byte checksum
// and copy work (see internal/sim/costs.go for the calibration rationale).
const (
	// CostRxPath is IP/transport demux, skb bookkeeping and socket
	// queueing on receive.
	CostRxPath sim.Duration = 900
	// CostTxPath is skb alloc, header construction and queueing on send.
	CostTxPath sim.Duration = 1100
	// CostSockDeliver is waking/running the receiving application
	// (amortised recv syscall).
	CostSockDeliver sim.Duration = 400
)

// Stack is the kernel network core.
type Stack struct {
	Loop *sim.Loop
	Acct *sim.CPUAccount // the kernel CPU account

	// Trace is the machine's tracing plane (nil-safe; span events cost
	// nothing unless enabled). Net proxies reach it through here, the way
	// block proxies reach it through blockdev.Manager.
	Trace *trace.Tracer

	ifaces map[string]*Iface
	udp    map[uint16]*UDPSock
	tcp    map[uint16]*TCPReceiver

	// adopting holds interfaces whose driver died under supervision,
	// awaiting adoption by the restarted driver's registration.
	adopting map[string]*Iface

	// Firewall, if set, inspects every received frame; returning false
	// drops it. It runs before payload delivery, like a netfilter hook.
	// Like a socket payload, frame is valid only during the call.
	Firewall func(frame []byte) bool

	// txBufs holds the MaxFrameLen-byte buffers outgoing frames are built
	// in. A frame handed to the driver is valid only during the call, so
	// its buffer comes back when the call returns; a send made from
	// inside the driver call (a queue wake's hook) takes a buffer of its
	// own.
	txBufs *fifo.Buffers

	// Counters.
	RxFrames, RxDrops  uint64
	TxFrames, TxErrors uint64
	FirewallDrops      uint64
}

// New returns an empty stack charging CPU to acct.
func New(loop *sim.Loop, acct *sim.CPUAccount) *Stack {
	return &Stack{
		Loop:     loop,
		Acct:     acct,
		ifaces:   make(map[string]*Iface),
		udp:      make(map[uint16]*UDPSock),
		tcp:      make(map[uint16]*TCPReceiver),
		adopting: make(map[string]*Iface),
		txBufs:   fifo.NewBuffers(MaxFrameLen),
	}
}

// IfaceQueue is one per-queue context of an interface: its own TX stop/wake
// state and its own RX delivery counters. Splitting this state per queue is
// what lets one backpressured queue stall only the flows hashed onto it —
// sibling queues keep transmitting and receiving (the multi-queue netstack
// item on the roadmap).
type IfaceQueue struct {
	ID int

	txStopped bool

	// Surgical recovery state: the supervisor quarantined this one queue
	// pair (its DMA sub-domain revoked) while siblings keep flowing.
	// Epoch is the queue's own incarnation counter; recovering stops TX
	// on this queue and drops its RX deliveries. ParkedRxDrops counts
	// frames dropped while parked.
	Epoch         uint64
	recovering    bool
	ParkedRxDrops uint64

	// RxFrames / TxFrames count per-queue traffic through this context.
	RxFrames, TxFrames uint64

	// RxLat is the per-queue end-to-end receive latency histogram: device
	// DMA of the frame → stack delivery. The device model stamps the
	// frame's birth (trace.Mark keyed by buffer IOVA) and the SUD proxy
	// records the delta here at delivery; always on, zero virtual cost.
	RxLat trace.Hist
	// TxLat is the per-queue transmit latency histogram: StartXmitQ →
	// the driver's xmit-done credit returning the slot.
	TxLat trace.Hist

	// OnWake, if set, runs when this queue is woken; when unset the
	// interface-level OnWake hook fires instead.
	OnWake func()
}

// Iface is one registered network interface. It implements api.NetKernel —
// it is what RegisterNetDev hands back to the driver. Its TX and RX state is
// split into per-queue contexts, one per hardware queue the bound device
// exposes; single-queue devices simply have one context, queue 0.
type Iface struct {
	Name string
	MAC  MAC
	IP   IP

	stack *Stack
	dev   api.NetDevice
	mqdev api.MultiQueueNetDevice // nil for single-queue devices
	up    bool

	carrier bool
	queues  []IfaceQueue

	// Shadow recovery state: the optional config snapshot (attached by the
	// supervisor), the recovering flag (every queue held in the TX-stopped
	// state until the restarted driver takes over), and the epoch — bumped
	// on each driver death so a proxy bound to the dead incarnation can no
	// longer deliver frames or wakes into this interface.
	Shadow     *shadow.Net
	recovering bool
	epoch      uint64

	// Flight is the per-device flight recorder the supervisor shares with
	// this interface (nil-safe): park/adopt transitions land here, between
	// the supervisor's kill/detect/verdict events.
	Flight *trace.Flight

	// OnWake, if set, runs when the driver wakes a queue with no
	// queue-level hook (backpressure release for the TX benchmark loop).
	OnWake func()
}

var _ api.NetKernel = (*Iface)(nil)
var _ api.RecoverableDevice = (*Iface)(nil)

// ErrNameTaken reports an interface-name collision at registration.
var ErrNameTaken = fmt.Errorf("netstack: interface name already registered")

// Register adds an interface for a driver's netdev. Names must be unique.
// Devices implementing api.MultiQueueNetDevice get one queue context per
// hardware queue; everything else gets exactly one. If an interface is
// awaiting adoption (its supervised driver died) and the registration
// matches it by name or hardware address, the existing interface object is
// adopted instead: sockets and application handles survive the restart.
func (s *Stack) Register(name string, macAddr [6]byte, dev api.NetDevice) (*Iface, error) {
	if ifc := s.adopt(name, macAddr); ifc != nil {
		ifc.dev = dev
		ifc.mqdev = nil
		if mq, ok := dev.(api.MultiQueueNetDevice); ok {
			ifc.mqdev = mq
		}
		return ifc, nil
	}
	if _, dup := s.ifaces[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrNameTaken, name)
	}
	ifc := &Iface{Name: name, MAC: MAC(macAddr), stack: s, dev: dev}
	nq := 1
	if mq, ok := dev.(api.MultiQueueNetDevice); ok {
		ifc.mqdev = mq
		if n := mq.TxQueues(); n > 1 {
			nq = n
		}
	}
	ifc.queues = make([]IfaceQueue, nq)
	for q := range ifc.queues {
		ifc.queues[q].ID = q
	}
	s.ifaces[name] = ifc
	return ifc, nil
}

// NumQueues reports the interface's queue-context count.
func (ifc *Iface) NumQueues() int { return len(ifc.queues) }

// Queue returns queue q's context (clamped), for per-queue hooks and stats.
func (ifc *Iface) Queue(q int) *IfaceQueue { return &ifc.queues[ifc.clampQ(q)] }

func (ifc *Iface) clampQ(q int) int {
	if q < 0 || q >= len(ifc.queues) {
		return 0
	}
	return q
}

// Unregister removes an interface (driver removal). Unregistering an
// interface mid-recovery aborts the recovery — no later registration can
// adopt it.
func (s *Stack) Unregister(name string) {
	if ifc, ok := s.ifaces[name]; ok {
		ifc.recovering = false
		ifc.up = false
	}
	delete(s.ifaces, name)
	delete(s.adopting, name)
}

// BeginRecovery marks name's interface as recovering: its driver process
// died under supervision. TX holds in the stalled state on every queue (the
// transport above sees ErrQueueStopped, not a vanished device), the epoch is
// bumped so the dead incarnation's proxy is cut off, and — when a shadow is
// attached — the configuration snapshot recovery will replay is captured.
func (s *Stack) BeginRecovery(name string) (*Iface, error) {
	ifc, ok := s.ifaces[name]
	if !ok {
		return nil, fmt.Errorf("netstack: no interface %q to recover", name)
	}
	if _, pending := s.adopting[name]; pending && ifc.recovering {
		return ifc, nil // second death with no incarnation bound in between
	}
	ifc.recovering = true
	ifc.epoch++
	for q := range ifc.queues {
		// A device-wide recovery subsumes any surgical one in progress.
		ifc.queues[q].txStopped = true
		ifc.queues[q].recovering = false
	}
	if sh := ifc.Shadow; sh != nil {
		sh.MAC = ifc.MAC
		sh.IP = ifc.IP
		sh.Up = ifc.up
		sh.Carrier = ifc.carrier
		sh.Queues = len(ifc.queues)
		sh.Snapshots++
	}
	s.adopting[name] = ifc
	ifc.Flight.Recordf(trace.FPark, "%s epoch %d: TX stopped on %d queues", name, ifc.epoch, len(ifc.queues))
	return ifc, nil
}

// adopt matches a registration against the adoption table: exact name
// first, then hardware address — the driver read it back from the same
// device's EEPROM, so it identifies the interface when a lower name was
// freed and the restarted driver was handed that one instead. The address
// must agree either way: a driver for another NIC must not inherit the
// interface's sockets.
func (s *Stack) adopt(name string, macAddr [6]byte) *Iface {
	ifc, ok := s.adopting[name]
	if !ok {
		for n, cand := range s.adopting {
			if cand.MAC == MAC(macAddr) {
				ifc, name, ok = cand, n, true
				break
			}
		}
	}
	if !ok || ifc.MAC != MAC(macAddr) {
		return nil
	}
	delete(s.adopting, name)
	ifc.Flight.Recordf(trace.FAdopt, "%s adopted by restarted driver", name)
	return ifc
}

// Quarantine bars name's driver while letting the interface survive:
// recovery ends, the epoch is bumped once more, TX stays stopped and the
// interface is left down and driverless for the admin. Unlike Unregister,
// sockets and handles keep resolving the name.
func (s *Stack) Quarantine(name string) {
	ifc, ok := s.ifaces[name]
	if !ok {
		return
	}
	delete(s.adopting, name)
	ifc.recovering = false
	ifc.up = false
	ifc.carrier = false
	ifc.epoch++
	for q := range ifc.queues {
		ifc.queues[q].txStopped = true
		ifc.queues[q].recovering = false
	}
}

// Iface looks up an interface by name.
func (s *Stack) Iface(name string) (*Iface, error) {
	ifc, ok := s.ifaces[name]
	if !ok {
		return nil, fmt.Errorf("netstack: no interface %q", name)
	}
	return ifc, nil
}

// Up brings the interface up (ifconfig up → ndo_open).
func (ifc *Iface) Up(addr IP) error {
	if ifc.up {
		return nil
	}
	ifc.IP = addr
	if err := ifc.dev.Open(); err != nil {
		return fmt.Errorf("netstack: open %s: %w", ifc.Name, err)
	}
	ifc.up = true
	return nil
}

// Down brings the interface down (→ ndo_stop).
func (ifc *Iface) Down() error {
	if !ifc.up {
		return nil
	}
	ifc.up = false
	return ifc.dev.Stop()
}

// IsUp reports admin state.
func (ifc *Iface) IsUp() bool { return ifc.up }

// Carrier reports the mirrored link state.
func (ifc *Iface) Carrier() bool { return ifc.carrier }

// Epoch reports the interface's driver incarnation epoch; it increments on
// every BeginRecovery. Proxies record the epoch they bound at and reject
// their own late downcalls once it moves on.
func (ifc *Iface) Epoch() uint64 { return ifc.epoch }

// Recovering reports whether the interface is between driver incarnations.
func (ifc *Iface) Recovering() bool { return ifc.recovering }

// QueueEpoch reports queue q's own incarnation epoch; it increments on
// every BeginQueueRecovery.
func (ifc *Iface) QueueEpoch(q int) uint64 { return ifc.queues[ifc.clampQ(q)].Epoch }

// QueueRecovering reports whether queue q alone is parked by a surgical
// recovery.
func (ifc *Iface) QueueRecovering(q int) bool { return ifc.queues[ifc.clampQ(q)].recovering }

// BeginQueueRecovery parks exactly one queue pair: the supervisor detected
// DMA faults attributable to queue q and revoked that queue's sub-domain,
// while the driver process — and every sibling queue — stays up. TX holds
// stopped on this queue, its RX deliveries are dropped (the transport
// retransmits), and the queue's own epoch is bumped. Idempotent; a
// device-wide recovery subsumes it.
func (ifc *Iface) BeginQueueRecovery(q int) {
	if ifc.recovering {
		return
	}
	qc := &ifc.queues[ifc.clampQ(q)]
	if qc.recovering {
		return
	}
	qc.recovering = true
	qc.txStopped = true
	qc.Epoch++
	ifc.Flight.Recordf(trace.FPark, "%s q%d epoch %d: TX stopped, RX dropped",
		ifc.Name, qc.ID, qc.Epoch)
}

// CompleteQueueRecovery releases a surgically parked queue after its DMA
// sub-domain is re-armed: TX wakes on this one queue and RX flows again.
// Siblings never noticed. Nothing is replayed: the driver process survived,
// so the transmits it still holds are its own to send and credit, and their
// shadow log entries stay until those credits confirm them. It returns the
// replayed frame count — always zero — and an error while a device-wide
// recovery is in progress.
func (ifc *Iface) CompleteQueueRecovery(q int) (int, error) {
	if ifc.recovering {
		return 0, fmt.Errorf("netstack: %s is in device-wide recovery", ifc.Name)
	}
	qc := &ifc.queues[ifc.clampQ(q)]
	if !qc.recovering {
		return 0, nil
	}
	qc.recovering = false
	ifc.Flight.Recordf(trace.FReplay, "%s q%d epoch %d: queue re-armed, TX released",
		ifc.Name, qc.ID, qc.Epoch)
	ifc.wakeQueue(qc.ID)
	return 0, nil
}

// CompleteRecovery finishes a shadow recovery after the restarted driver has
// adopted the interface: the recorded bring-up is replayed (the driver's
// Open re-arms its RX rings and, under RSS, reprograms the redirection
// table over the same queue count), every queue's TX is released, and the
// shadow TX log — frames the dead incarnation swallowed without an
// xmit-done credit — is re-submitted through the new driver, so the kill is
// invisible at the packet level. The IP address and admin state are
// restored from the shadow snapshot when one is attached, else from the
// surviving interface object itself. It returns the replayed frame count;
// on an Open failure the interface stays recovering, so a second restart
// can retry.
func (ifc *Iface) CompleteRecovery() (int, error) {
	if !ifc.recovering {
		return 0, nil
	}
	up := ifc.up
	if sh := ifc.Shadow; sh != nil {
		up = sh.Up
		ifc.IP = IP(sh.IP)
	}
	if up {
		if err := ifc.dev.Open(); err != nil {
			return 0, fmt.Errorf("netstack: recovery open %s: %w", ifc.Name, err)
		}
		ifc.up = true
	}
	ifc.recovering = false
	ifc.Flight.Recordf(trace.FReplay, "%s bring-up replayed, TX released", ifc.Name)
	replayed := 0
	for q := range ifc.queues {
		ifc.wakeQueue(q)
	}
	for q := range ifc.queues {
		replayed += ifc.replayTx(q)
	}
	return replayed, nil
}

// replayTx re-submits queue q's unconfirmed shadow TX log through the live
// driver, in original submission order. Re-submission runs the normal xmit
// path, so each replayed frame re-enters the log — it is in flight in the
// new incarnation now, and its xmit-done credit will confirm it. A frame
// the new driver refuses (ring already full) is dropped: at that point the
// transport's retransmit owns it.
func (ifc *Iface) replayTx(q int) int {
	sh := ifc.Shadow
	if sh == nil {
		return 0
	}
	replayed := 0
	// Replay on the queue the frame was logged under, not the flow hash:
	// frames pinned by xmitQ must come back on their pinned queue.
	for _, frame := range sh.TakePendingTx(q) {
		if err := ifc.stack.xmitQ(ifc, frame, q); err == nil {
			replayed++
		}
	}
	sh.TxReplayed += uint64(replayed)
	if replayed > 0 {
		ifc.Flight.Recordf(trace.FReplay, "%s q%d: %d logged TX frames replayed",
			ifc.Name, q, replayed)
	}
	return replayed
}

// TxConfirm reports the driver's xmit-done credit for queue q's oldest
// in-flight frame (TX rings are reclaimed in order, so credits are FIFO per
// queue): the frame left the device, and the shadow log must not replay it.
// Proxies call it from their validated credit path; without an attached
// shadow it is a no-op.
func (ifc *Iface) TxConfirm(q int) {
	if sh := ifc.Shadow; sh != nil {
		sh.ConfirmXmit(ifc.clampQ(q))
	}
}

// Ioctl forwards a device-private ioctl to the driver (a synchronous
// operation: under SUD this is the blocking-upcall path).
func (ifc *Iface) Ioctl(cmd uint32, arg []byte) ([]byte, error) {
	return ifc.dev.DoIoctl(cmd, arg)
}

// --- api.NetKernel (driver → kernel) ---------------------------------------

// NetifRx implements api.NetKernel: the trusted-path packet input, tagged
// with the RX queue the frame arrived on. The in-kernel driver hands a view
// of its RX buffer, valid only during the call; the stack verifies
// transport checksums itself, and delivery is accounted to the queue's
// context.
func (ifc *Iface) NetifRx(frame []byte, q int) {
	qc := &ifc.queues[ifc.clampQ(q)]
	if qc.recovering {
		// A surgically quarantined queue delivers nothing: frames from
		// its dead incarnation are dropped, not trusted (the transport
		// retransmits).
		qc.ParkedRxDrops++
		return
	}
	qc.RxFrames++
	ifc.stack.deliver(ifc, frame, false)
}

// NetifRxVerified is the proxy-driver input path, tagged with its RX queue:
// the frame was already guard-copied out of shared memory with its checksum
// verified in the same pass (§3.1.2), so the stack must not checksum it
// again.
func (ifc *Iface) NetifRxVerified(frame []byte, q int) {
	qc := &ifc.queues[ifc.clampQ(q)]
	if qc.recovering {
		qc.ParkedRxDrops++
		return
	}
	qc.RxFrames++
	ifc.stack.deliver(ifc, frame, true)
}

// CarrierOn implements api.NetKernel.
func (ifc *Iface) CarrierOn() { ifc.carrier = true }

// CarrierOff implements api.NetKernel.
func (ifc *Iface) CarrierOff() { ifc.carrier = false }

// WakeQueue implements api.NetKernel: wake one stopped queue, leaving
// siblings' stop state untouched (a single-queue driver's "my ring has
// space again" names queue 0).
func (ifc *Iface) WakeQueue(q int) { ifc.wakeQueue(ifc.clampQ(q)) }

func (ifc *Iface) wakeQueue(q int) {
	if ifc.recovering || ifc.queues[q].recovering {
		// Wakes between driver incarnations must not release TX into a
		// driver that no longer exists; CompleteRecovery wakes every
		// queue once the restarted driver is in place. A surgically
		// quarantined queue stays parked until its own re-arm.
		return
	}
	ifc.queues[q].txStopped = false
	if h := ifc.queues[q].OnWake; h != nil {
		h()
		return
	}
	if ifc.OnWake != nil {
		ifc.OnWake()
	}
}

// --- Receive path -----------------------------------------------------------

func (s *Stack) deliver(ifc *Iface, frame []byte, verified bool) {
	s.RxFrames++
	s.Acct.Charge(CostRxPath)

	if s.Firewall != nil && !s.Firewall(frame) {
		s.FirewallDrops++
		return
	}

	eh, ipPkt, err := ParseEth(frame)
	if err != nil || eh.EtherType != EtherTypeIPv4 {
		s.RxDrops++
		return
	}
	ih, l4, err := ParseIPv4(ipPkt)
	if err != nil {
		s.RxDrops++
		return
	}
	// Transport checksum: charged per byte unless the proxy already
	// fused it with its guard copy.
	if !verified {
		s.Acct.Charge(sim.Checksum(len(l4)))
	}
	switch ih.Proto {
	case ProtoUDP:
		uh, payload, err := ParseUDP(ih.Src, ih.Dst, l4, true)
		if err != nil {
			s.RxDrops++
			return
		}
		sock, ok := s.udp[uh.DstPort]
		if !ok {
			s.RxDrops++
			return
		}
		s.Acct.Charge(CostSockDeliver)
		sock.deliver(payload, ih.Src, uh.SrcPort)
	case ProtoTCP:
		th, payload, err := ParseTCP(ih.Src, ih.Dst, l4, true)
		if err != nil {
			s.RxDrops++
			return
		}
		r, ok := s.tcp[th.DstPort]
		if !ok {
			s.RxDrops++
			return
		}
		r.segment(ifc, eh, ih, th, payload)
	default:
		s.RxDrops++
	}
}

// --- Transmit path ----------------------------------------------------------

// ErrQueueStopped is returned when the driver has stopped the TX queue.
var ErrQueueStopped = fmt.Errorf("netstack: transmit queue stopped")

// TxQueueForPorts is the flow-steering hash: the TX queue a flow with the
// given transport ports lands on among nq queues. It is the same hash the
// e1000 device model's RSS steering uses, so a flow's transmit queue and
// receive ring line up end to end.
func TxQueueForPorts(sport, dport uint16, nq int) int {
	if nq <= 1 {
		return 0
	}
	return int((uint32(sport)*31 + uint32(dport)) % uint32(nq))
}

// TxQueueForFrame steers a built frame to a TX queue by hashing its
// transport ports; non-IPv4 and short frames use queue 0. Keeping each flow
// on one queue preserves per-flow ordering.
func TxQueueForFrame(frame []byte, nq int) int {
	if nq <= 1 {
		return 0
	}
	if len(frame) < EthHeaderLen+20 || frame[12] != 0x08 || frame[13] != 0x00 {
		return 0
	}
	ihl := int(frame[EthHeaderLen]&0x0F) * 4
	proto := frame[EthHeaderLen+9]
	l4 := EthHeaderLen + ihl
	if (proto != 6 && proto != 17) || len(frame) < l4+4 {
		return 0
	}
	sport := uint16(frame[l4])<<8 | uint16(frame[l4+1])
	dport := uint16(frame[l4+2])<<8 | uint16(frame[l4+3])
	return TxQueueForPorts(sport, dport, nq)
}

// xmit pushes a fully built frame to the driver, charging TX path cost. The
// frame is steered to a queue context by flow hash; backpressure from the
// driver stops that queue only.
func (s *Stack) xmit(ifc *Iface, frame []byte) error {
	return s.xmitQ(ifc, frame, TxQueueForFrame(frame, len(ifc.queues)))
}

// xmitQ is xmit with the TX queue named by the caller instead of derived from
// the flow hash — the mechanism under both default steering and the tenant
// plane's explicit tenant↔queue pinning.
func (s *Stack) xmitQ(ifc *Iface, frame []byte, q int) error {
	if !ifc.up {
		return fmt.Errorf("netstack: %s is down", ifc.Name)
	}
	q = ifc.clampQ(q)
	qc := &ifc.queues[q]
	if qc.txStopped {
		s.TxErrors++
		return ErrQueueStopped
	}
	s.Acct.Charge(CostTxPath)
	var err error
	if ifc.mqdev != nil {
		err = ifc.mqdev.StartXmitQ(frame, q)
	} else {
		err = ifc.dev.StartXmit(frame)
	}
	if err != nil {
		// Driver signals ring-full backpressure by error; this queue
		// stays stopped until WakeQueue — siblings keep transmitting.
		qc.txStopped = true
		s.TxErrors++
		return ErrQueueStopped
	}
	if ifc.Shadow != nil {
		// A supervised driver may die before the frame's credit returns;
		// the shadow's copy is what the recovery then replays.
		ifc.Shadow.RecordXmit(q, frame)
	}
	qc.TxFrames++
	s.TxFrames++
	return nil
}

// ErrMsgSize is returned for a datagram whose payload exceeds
// MaxUDPPayload: it would not fit one frame, and the stack does not
// fragment.
var ErrMsgSize = fmt.Errorf("netstack: UDP payload exceeds the MTU")

// UDPSendTo builds and transmits a UDP datagram on the flow's TX queue.
// dstMAC stands in for ARP resolution (the benchmark LAN has static
// neighbours).
func (s *Stack) UDPSendTo(ifc *Iface, dstMAC MAC, dstIP IP, sport, dport uint16, payload []byte) error {
	return s.UDPSendToQ(ifc, dstMAC, dstIP, sport, dport, payload, TxQueueForPorts(sport, dport, len(ifc.queues)))
}

// UDPSendToQ is UDPSendTo with the TX queue pinned by the caller rather than
// flow-hashed — the netstack half of the unified queue-aware kernel API,
// mirroring blockdev's ReadAtQ/WriteAtQ. The tenant plane uses it to keep a
// tenant's replies on the tenant's own driver queue even when the reply
// flow's hash would land elsewhere, so per-queue confinement stays a tenant
// isolation boundary in both directions. A payload over MaxUDPPayload fails
// with ErrMsgSize before anything is built or charged.
func (s *Stack) UDPSendToQ(ifc *Iface, dstMAC MAC, dstIP IP, sport, dport uint16, payload []byte, q int) error {
	if len(payload) > MaxUDPPayload {
		return ErrMsgSize
	}
	// Header construction + payload checksum+copy into the skb.
	s.Acct.Charge(sim.ChecksumCopy(len(payload)))
	frame := AppendUDPFrame(s.txBufs.Get(0), ifc.MAC, dstMAC, ifc.IP, dstIP, sport, dport, payload)
	defer s.txBufs.Put(frame)
	return s.xmitQ(ifc, frame, q)
}
