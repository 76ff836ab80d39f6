package kvserve

import (
	"fmt"

	"sud/internal/kernel/blockdev"
	"sud/internal/kernel/netstack"
)

// Config shapes the service.
type Config struct {
	// Tenants is the shard count: tenant t serves UDP port PortBase+t and is
	// pinned to NIC queue t mod NumQueues and block queue t mod NumQueues.
	Tenants  int
	PortBase uint16
	// ClientMAC stands in for ARP resolution of the tenants' clients (the
	// benchmark LAN has static neighbours).
	ClientMAC netstack.MAC
	// Store, when non-nil, is the write-through persistence layer. Each
	// tenant owns the LBA region [LBABase + t*BlocksPerTenant, +BlocksPerTenant).
	Store           *blockdev.Dev
	LBABase         uint64
	BlocksPerTenant uint64
}

// Tenant is one shard: a port, a NIC queue, a block queue, an LBA region and
// an in-memory map. The memory copy is authoritative — persistence is
// write-through, so storage trouble degrades durability, never availability.
type Tenant struct {
	ID    int
	Port  uint16
	Queue int // NIC queue: both the RSS ring requests arrive on and the TX queue replies leave on
	BlkQ  int // block device queue persistence submits to

	// store maps a key to its value's storage. It holds the storage by
	// pointer so a PUT to a stored key rewrites the value in place, without
	// inserting the key again.
	store map[string]*[]byte

	// Counters. PersistErrs counts writes the block layer refused or failed
	// (quarantined device, congestion): the tenant keeps serving from memory
	// and still acknowledges — degraded, not down.
	Requests, Gets, Puts, Dels uint64
	NotFound, BadRequests      uint64
	PersistErrs, ReplyErrs     uint64
}

// Server owns the shards and the sockets.
type Server struct {
	cfg     Config
	stack   *netstack.Stack
	ifc     *netstack.Iface
	tenants []*Tenant

	// block is packBlock's buffer: WriteAtQ copies the payload before it
	// returns, so one buffer serves every write.
	block []byte

	// resp is reply's encode buffer: UDPSendToQ copies the payload into
	// its frame before it transmits, so one buffer serves every reply,
	// a reply sent from inside another reply's transmit included.
	resp []byte

	// puts is the free list of write-through records: a record leaves it
	// for one PUT's block write and returns when the write completes.
	puts []*pendingPut
}

// pendingPut is one write-through PUT waiting for its block completion:
// what the reply needs once the write is done. done is the completion,
// bound once per record.
type pendingPut struct {
	s       *Server
	tn      *Tenant
	id      uint64
	dstIP   netstack.IP
	dstPort uint16
	done    func(error)
}

// New binds one UDP socket per tenant on stack/ifc and wires each shard to
// its queues. Requests reach tenant t's NIC queue by RSS when clients pick
// source ports with netstack.TxQueueForPorts(sport, port(t), NumQueues) ==
// t mod NumQueues; replies are pinned there explicitly via UDPSendToQ.
func New(stack *netstack.Stack, ifc *netstack.Iface, cfg Config) (*Server, error) {
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("kvserve: need at least one tenant")
	}
	if cfg.Store != nil && cfg.BlocksPerTenant == 0 {
		return nil, fmt.Errorf("kvserve: persistent config needs BlocksPerTenant")
	}
	s := &Server{cfg: cfg, stack: stack, ifc: ifc}
	nq := ifc.NumQueues()
	bq := 1
	if cfg.Store != nil {
		bq = cfg.Store.NumQueues()
	}
	for t := 0; t < cfg.Tenants; t++ {
		tn := &Tenant{
			ID:    t,
			Port:  cfg.PortBase + uint16(t),
			Queue: t % nq,
			BlkQ:  t % bq,
			store: make(map[string]*[]byte),
		}
		if _, err := stack.UDPBind(tn.Port, func(payload []byte, srcIP netstack.IP, srcPort uint16) {
			s.serve(tn, payload, srcIP, srcPort)
		}); err != nil {
			for _, prev := range s.tenants {
				stack.UDPClose(prev.Port)
			}
			return nil, err
		}
		s.tenants = append(s.tenants, tn)
	}
	return s, nil
}

// Tenant returns shard t.
func (s *Server) Tenant(t int) *Tenant { return s.tenants[t] }

// Tenants returns the shard count.
func (s *Server) Tenants() int { return len(s.tenants) }

// serve handles one datagram on tenant tn's port. The request's key and
// value are views of payload, valid only until serve returns: a stored
// value is a copy, and the block write copies its payload before WriteAtQ
// returns.
func (s *Server) serve(tn *Tenant, payload []byte, srcIP netstack.IP, srcPort uint16) {
	req, err := DecodeRequest(payload)
	if err != nil {
		// No trustworthy request id to echo: drop. The client's retransmit
		// timer owns this failure mode.
		tn.BadRequests++
		return
	}
	tn.Requests++
	switch req.Op {
	case OpGet:
		tn.Gets++
		if val := tn.store[string(req.Key)]; val != nil {
			s.reply(tn, srcIP, srcPort, Response{Status: StOK, ID: req.ID, Val: *val})
		} else {
			tn.NotFound++
			s.reply(tn, srcIP, srcPort, Response{Status: StNotFound, ID: req.ID})
		}
	case OpDel:
		tn.Dels++
		delete(tn.store, string(req.Key))
		s.reply(tn, srcIP, srcPort, Response{Status: StOK, ID: req.ID})
	case OpPut:
		tn.Puts++
		// The key's first PUT allocates its storage; later ones copy into
		// it, growing it only for a longer value.
		val := tn.store[string(req.Key)]
		if val == nil {
			val = new([]byte)
			tn.store[string(req.Key)] = val
		}
		*val = append((*val)[:0], req.Val...)
		if s.cfg.Store == nil {
			s.reply(tn, srcIP, srcPort, Response{Status: StOK, ID: req.ID})
			return
		}
		// Write-through on the tenant's own block queue; the reply waits for
		// the completion so the SLO histogram sees storage latency. A refused
		// or failed write degrades to memory-only service: count it, still
		// acknowledge — one tenant's quarantined queue must not turn sibling
		// durability trouble into unavailability.
		pp := s.takePut()
		pp.tn, pp.id, pp.dstIP, pp.dstPort = tn, req.ID, srcIP, srcPort
		if err := s.cfg.Store.WriteAtQ(s.blockFor(tn, req.Key), tn.BlkQ, s.packBlock(req.Key, *val), pp.done); err != nil {
			s.puts = append(s.puts, pp)
			tn.PersistErrs++
			s.reply(tn, srcIP, srcPort, Response{Status: StOK, ID: req.ID})
		}
	}
}

// takePut returns a write-through record off the free list, or a new one
// with its completion bound.
func (s *Server) takePut() *pendingPut {
	if n := len(s.puts); n > 0 {
		pp := s.puts[n-1]
		s.puts = s.puts[:n-1]
		return pp
	}
	pp := &pendingPut{s: s}
	pp.done = pp.complete
	return pp
}

// complete is a write-through PUT's block completion. The record goes back
// on the free list before the reply is sent, so a PUT served from inside
// the reply's transmit can take it again.
func (pp *pendingPut) complete(werr error) {
	s, tn, id, dstIP, dstPort := pp.s, pp.tn, pp.id, pp.dstIP, pp.dstPort
	s.puts = append(s.puts, pp)
	if werr != nil {
		tn.PersistErrs++
	}
	s.reply(tn, dstIP, dstPort, Response{Status: StOK, ID: id})
}

// reply transmits a response pinned to the tenant's NIC queue, encoded in
// the server's reply buffer.
func (s *Server) reply(tn *Tenant, dstIP netstack.IP, dstPort uint16, resp Response) {
	s.resp = AppendResponse(s.resp[:0], resp)
	err := s.stack.UDPSendToQ(s.ifc, s.cfg.ClientMAC, dstIP, tn.Port, dstPort, s.resp, tn.Queue)
	if err != nil {
		// TX backpressure or a parked queue: the reply is lost and the
		// client retransmits. Confinement means this stays on tn.Queue.
		tn.ReplyErrs++
	}
}

// blockFor maps a key into the tenant's LBA region.
func (s *Server) blockFor(tn *Tenant, key []byte) uint64 {
	base := s.cfg.LBABase + uint64(tn.ID)*s.cfg.BlocksPerTenant
	return base + fnv64(key)%s.cfg.BlocksPerTenant
}

// packBlock lays `klen(1) key vlen(2) val` into one zero-padded block, in
// the server's block buffer (valid until the next call).
func (s *Server) packBlock(key, val []byte) []byte {
	if s.block == nil {
		s.block = make([]byte, s.cfg.Store.Geom.BlockSize)
	}
	b := s.block
	clear(b)
	b[0] = byte(len(key))
	copy(b[1:], key)
	off := 1 + len(key)
	b[off] = byte(len(val) >> 8)
	b[off+1] = byte(len(val))
	copy(b[off+2:], val)
	return b
}

// fnv64 is FNV-1a; it only has to spread keys across a tenant's blocks.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
