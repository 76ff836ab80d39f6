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

	store map[string][]byte

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
			store: make(map[string][]byte),
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

// serve handles one datagram on tenant tn's port.
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
		if val, ok := tn.store[string(req.Key)]; ok {
			s.reply(tn, srcIP, srcPort, Response{Status: StOK, ID: req.ID, Val: val})
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
		key := string(req.Key)
		val := append([]byte(nil), req.Val...)
		tn.store[key] = val
		if s.cfg.Store == nil {
			s.reply(tn, srcIP, srcPort, Response{Status: StOK, ID: req.ID})
			return
		}
		// Write-through on the tenant's own block queue; the reply waits for
		// the completion so the SLO histogram sees storage latency. A refused
		// or failed write degrades to memory-only service: count it, still
		// acknowledge — one tenant's quarantined queue must not turn sibling
		// durability trouble into unavailability.
		id, sIP, sPort := req.ID, srcIP, srcPort
		if err := s.cfg.Store.WriteAtQ(s.blockFor(tn, key), tn.BlkQ, s.packBlock(key, val), func(werr error) {
			if werr != nil {
				tn.PersistErrs++
			}
			s.reply(tn, sIP, sPort, Response{Status: StOK, ID: id})
		}); err != nil {
			tn.PersistErrs++
			s.reply(tn, srcIP, srcPort, Response{Status: StOK, ID: id})
		}
	}
}

// reply transmits a response pinned to the tenant's NIC queue.
func (s *Server) reply(tn *Tenant, dstIP netstack.IP, dstPort uint16, resp Response) {
	err := s.stack.UDPSendToQ(s.ifc, s.cfg.ClientMAC, dstIP, tn.Port, dstPort,
		EncodeResponse(resp), tn.Queue)
	if err != nil {
		// TX backpressure or a parked queue: the reply is lost and the
		// client retransmits. Confinement means this stays on tn.Queue.
		tn.ReplyErrs++
	}
}

// blockFor maps a key into the tenant's LBA region.
func (s *Server) blockFor(tn *Tenant, key string) uint64 {
	base := s.cfg.LBABase + uint64(tn.ID)*s.cfg.BlocksPerTenant
	return base + fnv64(key)%s.cfg.BlocksPerTenant
}

// packBlock lays `klen(1) key vlen(2) val` into one zero-padded block, in
// the server's block buffer (valid until the next call).
func (s *Server) packBlock(key string, val []byte) []byte {
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
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
