package tenantperf

import (
	"fmt"

	"sud/internal/ethlink"
	"sud/internal/kernel/kvserve"
	"sud/internal/kernel/netstack"
	"sud/internal/sim"
	"sud/internal/trace"
)

// Client is the wire-level tenant population: K tenants × Conns closed-loop
// connections, terminated at the link like netperf's RemoteHost so it
// consumes no DUT CPU. Each connection keeps one request outstanding,
// alternating PUTs and GETs on its own key, records the reply round-trip in
// its tenant's histogram, and retransmits on timeout — at-least-once, so
// duplicate replies from the DUT's TX replay after a recovery are detected
// and discarded by request id.
type Client struct {
	loop *sim.Loop
	link *ethlink.Link
	side int

	turnaround sim.Duration
	rto        sim.Duration

	Tenants []*TenantLoad
	bySport map[uint16]*conn
	stopped bool

	// req is issue's request encode buffer: AppendUDPFrame copies it into
	// the connection's lastReq, so one buffer serves every connection.
	req []byte
}

// TenantLoad aggregates one tenant's client-side view.
type TenantLoad struct {
	ID    int
	Port  uint16
	Queue int

	// Lat is the request→reply round-trip histogram, first transmission to
	// accepted reply — retransmit delay included, so a tenant whose queue
	// is under attack shows it in p99.
	Lat trace.Hist

	Sent       uint64 // requests issued (excluding retransmissions)
	Replies    uint64 // accepted replies (the goodput numerator)
	Retrans    uint64 // timeout retransmissions
	Duplicates uint64 // replies for an id no longer outstanding
	SendErrs   uint64 // wire FIFO full on transmit

	conns []*conn
}

type conn struct {
	t     *TenantLoad
	c     *Client
	sport uint16
	key   []byte
	val   []byte

	seq       uint64
	inflight  uint64 // outstanding request id, 0 = idle
	firstSent sim.Time
	lastReq   []byte
	// rtoEv is the retransmit timer (fires onRTO); issueFn is issue, bound
	// once for the turnaround timer.
	rtoEv   sim.Event
	issueFn func()
}

// NewClient builds the tenant population for cfg; Start begins the load.
// Connection source ports are chosen so each tenant's request flows
// RSS-steer onto the tenant's own NIC ring: TxQueueForPorts(sport, port(t),
// Queues) == t mod Queues.
func NewClient(loop *sim.Loop, link *ethlink.Link, side int, cfg Config) *Client {
	c := &Client{
		loop: loop, link: link, side: side,
		turnaround: cfg.Turnaround, rto: cfg.RTO,
		bySport: make(map[uint16]*conn),
	}
	sport := uint16(53000)
	for t := 0; t < cfg.Tenants; t++ {
		tl := &TenantLoad{ID: t, Port: PortBase + uint16(t), Queue: t % cfg.Queues}
		for i := 0; i < cfg.Conns; i++ {
			// Scan for the next source port steering onto the tenant's ring.
			for netstack.TxQueueForPorts(sport, tl.Port, cfg.Queues) != tl.Queue {
				sport++
			}
			cn := &conn{
				t: tl, c: c, sport: sport,
				key: []byte(fmt.Sprintf("t%d-c%d", t, i)),
				val: make([]byte, 64),
			}
			cn.rtoEv.Fn = cn.onRTO
			cn.issueFn = cn.issue
			c.bySport[sport] = cn
			tl.conns = append(tl.conns, cn)
			sport++
		}
		c.Tenants = append(c.Tenants, tl)
	}
	return c
}

// Start launches every connection's closed loop, staggered so the tenants
// don't fire in lockstep.
func (c *Client) Start() {
	c.stopped = false
	i := 0
	for _, tl := range c.Tenants {
		for _, cn := range tl.conns {
			c.loop.After(sim.Duration(i)*3*sim.Microsecond, cn.issueFn)
			i++
		}
	}
}

// Stop halts the load; in-flight timers become no-ops.
func (c *Client) Stop() { c.stopped = true }

// LinkDeliver implements ethlink.Endpoint: parse a service reply and hand it
// to the owning connection.
func (c *Client) LinkDeliver(frame []byte) {
	eh, ipPkt, err := netstack.ParseEth(frame)
	if err != nil || eh.EtherType != netstack.EtherTypeIPv4 {
		return
	}
	ih, l4, err := netstack.ParseIPv4(ipPkt)
	if err != nil || ih.Proto != netstack.ProtoUDP {
		return
	}
	uh, payload, err := netstack.ParseUDP(ih.Src, ih.Dst, l4, true)
	if err != nil {
		return
	}
	cn, ok := c.bySport[uh.DstPort]
	if !ok || uh.SrcPort != cn.t.Port {
		return
	}
	resp, err := kvserve.DecodeResponse(payload)
	if err != nil {
		return
	}
	cn.onReply(resp)
}

// id packs (sport, seq) so every connection's requests are globally unique
// across the run — the duplicate filter after a TX replay depends on it.
func (cn *conn) id() uint64 { return uint64(cn.sport)<<32 | (cn.seq & 0xFFFFFFFF) }

// issue starts the next request in the closed loop.
func (cn *conn) issue() {
	if cn.c.stopped {
		return
	}
	cn.seq++
	req := kvserve.Request{ID: cn.id(), Key: cn.key}
	// First op seeds the key; thereafter one PUT per four requests.
	if cn.seq == 1 || cn.seq%4 == 0 {
		req.Op = kvserve.OpPut
		req.Val = cn.val
	} else {
		req.Op = kvserve.OpGet
	}
	cn.inflight = req.ID
	cn.firstSent = cn.c.loop.Now()
	cn.c.req = kvserve.AppendRequest(cn.c.req[:0], req)
	cn.lastReq = netstack.AppendUDPFrame(cn.lastReq[:0], [6]byte(CliMAC), [6]byte(SrvMAC), CliIP, SrvIP,
		cn.sport, cn.t.Port, cn.c.req)
	cn.t.Sent++
	cn.xmit()
}

// xmit puts the current request on the wire and arms the retransmit timer.
func (cn *conn) xmit() {
	if cn.c.stopped {
		return
	}
	if err := cn.c.link.Send(cn.c.side, cn.lastReq); err != nil {
		// Wire FIFO full: the RTO doubles as the retry pacer.
		cn.t.SendErrs++
	}
	cn.c.loop.ArmAfter(&cn.rtoEv, cn.c.rto)
}

// onRTO retransmits a request still unanswered when its timer fires.
func (cn *conn) onRTO() {
	if cn.c.stopped || cn.inflight == 0 {
		return
	}
	cn.t.Retrans++
	cn.xmit()
}

// onReply accepts the reply for the outstanding request; anything else is a
// duplicate (replayed TX after a recovery) or stale retransmit answer.
func (cn *conn) onReply(resp kvserve.Response) {
	if cn.c.stopped {
		return
	}
	if cn.inflight == 0 || resp.ID != cn.inflight {
		cn.t.Duplicates++
		return
	}
	cn.inflight = 0
	cn.c.loop.Cancel(&cn.rtoEv)
	cn.t.Lat.Record(cn.c.loop.Now() - cn.firstSent)
	cn.t.Replies++
	cn.c.loop.After(cn.c.turnaround, cn.issueFn)
}
