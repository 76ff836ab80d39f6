package kvserve

import (
	"bytes"
	"errors"
	"testing"

	"sud/internal/drivers/api"
	"sud/internal/kernel/blockdev"
	"sud/internal/kernel/netstack"
	"sud/internal/sim"
)

var errMedia = errors.New("media error")

var (
	srvMAC = netstack.MAC{2, 0, 0, 0, 0, 1}
	cliMAC = netstack.MAC{2, 0, 0, 0, 0, 2}
	srvIP  = netstack.IP{10, 0, 0, 1}
	cliIP  = netstack.IP{10, 0, 0, 2}
)

// mqDev is a fake multi-queue netdev recording transmits per queue.
type mqDev struct {
	nq  int
	txq map[int][][]byte

	// onXmit, when set, runs once, inside the next transmit and before the
	// frame is recorded.
	onXmit func()
	// reuse keeps only the newest frame, in last, copied into storage the
	// fake reuses: a transmit then allocates nothing.
	reuse bool
	last  []byte
}

func (d *mqDev) Open() error              { return nil }
func (d *mqDev) Stop() error              { return nil }
func (d *mqDev) TxQueues() int            { return d.nq }
func (d *mqDev) StartXmit(f []byte) error { return d.StartXmitQ(f, 0) }
func (d *mqDev) StartXmitQ(f []byte, q int) error {
	if h := d.onXmit; h != nil {
		d.onXmit = nil
		h()
	}
	if d.reuse {
		d.last = append(d.last[:0], f...)
		return nil
	}
	if d.txq == nil {
		d.txq = map[int][][]byte{}
	}
	d.txq[q] = append(d.txq[q], bytes.Clone(f))
	return nil
}
func (d *mqDev) DoIoctl(cmd uint32, arg []byte) ([]byte, error) { return nil, nil }

// blkDrv is a fake block driver that completes every submission a few
// microseconds later on the sim loop, or inside Submit when sync is set.
type blkDrv struct {
	loop   *sim.Loop
	dev    *blockdev.Dev
	fail   bool
	sync   bool
	subs   []api.BlockRequest
	queues int
}

func (f *blkDrv) Open() error { return nil }
func (f *blkDrv) Stop() error { return nil }
func (f *blkDrv) Queues() int { return f.queues }
func (f *blkDrv) Submit(q int, req api.BlockRequest) error {
	if f.sync {
		// Nothing kept: a write's payload is not needed past the call.
		f.dev.Complete(q, req.Tag, nil, nil)
		return nil
	}
	req.Data = append([]byte(nil), req.Data...) // Submit must not retain the host's buffer
	f.subs = append(f.subs, req)
	f.loop.After(5*sim.Microsecond, func() {
		var err error
		if f.fail {
			err = errMedia
		}
		f.dev.Complete(q, req.Tag, err, req.Data)
	})
	return nil
}

type fixture struct {
	loop *sim.Loop
	ns   *netstack.Stack
	ifc  *netstack.Iface
	nic  *mqDev
	srv  *Server
	blk  *blkDrv
}

func newFixture(t *testing.T, tenants int, persist bool) *fixture {
	t.Helper()
	loop := sim.NewLoop()
	stats := sim.NewCPUStats(2)
	ns := netstack.New(loop, stats.Account("kernel"))
	nic := &mqDev{nq: 4}
	ifc, err := ns.Register("eth0", [6]byte(srvMAC), nic)
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(srvIP); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tenants: tenants, PortBase: 8000, ClientMAC: cliMAC}
	fx := &fixture{loop: loop, ns: ns, ifc: ifc, nic: nic}
	if persist {
		bm := blockdev.New(loop, stats.Account("kernel"))
		fx.blk = &blkDrv{loop: loop, queues: 4}
		dev, err := bm.Register("nvme0", api.BlockGeometry{BlockSize: 4096, Blocks: 4096}, fx.blk)
		if err != nil {
			t.Fatal(err)
		}
		fx.blk.dev = dev
		if err := dev.Up(); err != nil {
			t.Fatal(err)
		}
		cfg.Store, cfg.LBABase, cfg.BlocksPerTenant = dev, 0, 64
	}
	srv, err := New(ns, ifc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx.srv = srv
	return fx
}

// send injects one client request frame on the tenant's RX queue and returns
// the request id used.
func (fx *fixture) send(tn *Tenant, sport uint16, req Request) {
	frame := netstack.AppendUDPFrame(nil, [6]byte(cliMAC), [6]byte(srvMAC), cliIP, srvIP,
		sport, tn.Port, AppendRequest(nil, req))
	fx.ifc.NetifRx(frame, tn.Queue)
}

// lastReply decodes the newest reply on queue q.
func (fx *fixture) lastReply(t *testing.T, q int) Response {
	t.Helper()
	frames := fx.nic.txq[q]
	if len(frames) == 0 {
		t.Fatalf("no reply on queue %d", q)
	}
	return decodeReply(t, frames[len(frames)-1])
}

// decodeReply decodes the response one reply frame carries.
func decodeReply(t *testing.T, frame []byte) Response {
	t.Helper()
	// Strip Eth+IPv4+UDP (no options on this path).
	resp, err := DecodeResponse(frame[netstack.EthHeaderLen+20+8:])
	if err != nil {
		t.Fatalf("reply undecodable: %v", err)
	}
	return resp
}

func TestPutGetDelRoundTrip(t *testing.T) {
	fx := newFixture(t, 3, false)
	tn := fx.srv.Tenant(2) // queue 2 of 4
	if tn.Queue != 2 {
		t.Fatalf("tenant 2 on queue %d", tn.Queue)
	}

	fx.send(tn, 53000, Request{Op: OpPut, ID: 1, Key: []byte("k"), Val: []byte("v1")})
	if r := fx.lastReply(t, tn.Queue); r.Status != StOK || r.ID != 1 {
		t.Fatalf("put reply %+v", r)
	}
	fx.send(tn, 53000, Request{Op: OpGet, ID: 2, Key: []byte("k")})
	if r := fx.lastReply(t, tn.Queue); r.Status != StOK || r.ID != 2 || string(r.Val) != "v1" {
		t.Fatalf("get reply %+v", r)
	}
	fx.send(tn, 53000, Request{Op: OpDel, ID: 3, Key: []byte("k")})
	fx.send(tn, 53000, Request{Op: OpGet, ID: 4, Key: []byte("k")})
	if r := fx.lastReply(t, tn.Queue); r.Status != StNotFound || r.ID != 4 {
		t.Fatalf("get-after-del reply %+v", r)
	}
	if tn.Requests != 4 || tn.Puts != 1 || tn.Gets != 2 || tn.Dels != 1 || tn.NotFound != 1 {
		t.Fatalf("counters %+v", *tn)
	}
	// Shard isolation: nothing crossed to sibling tenants.
	if got := fx.srv.Tenant(0).Requests + fx.srv.Tenant(1).Requests; got != 0 {
		t.Fatalf("sibling tenants saw %d requests", got)
	}
}

// TestRepliesPinnedToTenantQueue: the reply leaves on the tenant's NIC queue
// even when the reply flow's hash would steer elsewhere — UDPSendToQ is what
// keeps per-queue recovery a per-tenant event.
func TestRepliesPinnedToTenantQueue(t *testing.T) {
	fx := newFixture(t, 4, false)
	for ti := 0; ti < 4; ti++ {
		tn := fx.srv.Tenant(ti)
		sport := uint16(53100 + ti)
		fx.send(tn, sport, Request{Op: OpGet, ID: uint64(ti), Key: []byte("x")})
		if r := fx.lastReply(t, tn.Queue); r.ID != uint64(ti) {
			t.Fatalf("tenant %d reply not on queue %d", ti, tn.Queue)
		}
	}
}

func TestWriteThroughPersistsBeforeReply(t *testing.T) {
	fx := newFixture(t, 2, true)
	tn := fx.srv.Tenant(1)

	fx.send(tn, 53000, Request{Op: OpPut, ID: 7, Key: []byte("key"), Val: []byte("val")})
	// The reply waits for the storage completion.
	if got := len(fx.nic.txq[tn.Queue]); got != 0 {
		t.Fatalf("replied before persistence (%d frames)", got)
	}
	if len(fx.blk.subs) != 1 {
		t.Fatalf("%d block submissions", len(fx.blk.subs))
	}
	sub := fx.blk.subs[0]
	base := uint64(tn.ID) * 64
	if sub.LBA < base || sub.LBA >= base+64 {
		t.Fatalf("write at LBA %d outside tenant region [%d,%d)", sub.LBA, base, base+64)
	}
	if sub.Data[0] != 3 || !bytes.Equal(sub.Data[1:4], []byte("key")) {
		t.Fatalf("packed block header %v", sub.Data[:8])
	}
	fx.loop.RunFor(sim.Millisecond)
	if r := fx.lastReply(t, tn.Queue); r.Status != StOK || r.ID != 7 {
		t.Fatalf("put reply %+v", r)
	}
	if tn.PersistErrs != 0 {
		t.Fatalf("persist errors %d", tn.PersistErrs)
	}
}

// TestDegradedServiceOnStorageFailure: a failing store costs durability, not
// availability — the tenant acknowledges, serves from memory and counts it.
func TestDegradedServiceOnStorageFailure(t *testing.T) {
	fx := newFixture(t, 1, true)
	tn := fx.srv.Tenant(0)
	fx.blk.fail = true

	fx.send(tn, 53000, Request{Op: OpPut, ID: 9, Key: []byte("k"), Val: []byte("v")})
	fx.loop.RunFor(sim.Millisecond)
	if r := fx.lastReply(t, tn.Queue); r.Status != StOK || r.ID != 9 {
		t.Fatalf("degraded put reply %+v", r)
	}
	if tn.PersistErrs != 1 {
		t.Fatalf("persist errors %d, want 1", tn.PersistErrs)
	}
	fx.send(tn, 53000, Request{Op: OpGet, ID: 10, Key: []byte("k")})
	if r := fx.lastReply(t, tn.Queue); r.Status != StOK || string(r.Val) != "v" {
		t.Fatalf("memory-backed get %+v", r)
	}

	// A downed device refuses synchronously; same degraded contract.
	fx.blk.fail = false
	if err := fx.blk.dev.Down(); err != nil {
		t.Fatal(err)
	}
	fx.send(tn, 53000, Request{Op: OpPut, ID: 11, Key: []byte("k2"), Val: []byte("v2")})
	if r := fx.lastReply(t, tn.Queue); r.Status != StOK || r.ID != 11 {
		t.Fatalf("put with device down %+v", r)
	}
	if tn.PersistErrs != 2 {
		t.Fatalf("persist errors %d, want 2", tn.PersistErrs)
	}
}

func TestBadRequestsDroppedWithoutReply(t *testing.T) {
	fx := newFixture(t, 1, false)
	tn := fx.srv.Tenant(0)
	for _, garbage := range [][]byte{
		nil,
		{OpGet},                              // truncated header
		{99, 0, 0, 0, 0, 0, 0, 0, 1, 1, 'k'}, // unknown op
		{OpGet, 0, 0, 0, 0, 0, 0, 0, 1, 0},   // zero-length key
		append(AppendRequest(nil, Request{Op: OpGet, ID: 1, Key: []byte("k")}), 0xFF), // trailing byte
	} {
		frame := netstack.AppendUDPFrame(nil, [6]byte(cliMAC), [6]byte(srvMAC), cliIP, srvIP,
			53000, tn.Port, garbage)
		fx.ifc.NetifRx(frame, tn.Queue)
	}
	if tn.BadRequests != 5 || tn.Requests != 0 {
		t.Fatalf("bad=%d requests=%d", tn.BadRequests, tn.Requests)
	}
	if len(fx.nic.txq[tn.Queue]) != 0 {
		t.Fatal("garbage earned a reply")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, ID: 42, Key: []byte("alpha")},
		{Op: OpPut, ID: 1 << 40, Key: []byte("k"), Val: bytes.Repeat([]byte{0xAB}, MaxValLen)},
		{Op: OpPut, ID: 7, Key: []byte("empty-val"), Val: nil},
		{Op: OpDel, ID: 0, Key: bytes.Repeat([]byte{'x'}, MaxKeyLen)},
	}
	for _, want := range reqs {
		got, err := DecodeRequest(AppendRequest(nil, want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got.Op != want.Op || got.ID != want.ID || !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Val, want.Val) {
			t.Fatalf("round trip %+v != %+v", got, want)
		}
	}
	resp := Response{Status: StOK, ID: 99, Val: []byte("payload")}
	got, err := DecodeResponse(AppendResponse(nil, resp))
	if err != nil || got.Status != resp.Status || got.ID != resp.ID || !bytes.Equal(got.Val, resp.Val) {
		t.Fatalf("response round trip %+v (%v)", got, err)
	}
}

// TestCodecAllocatesNothing pins the codecs to caller storage: a full-size
// request and response encode into a reused buffer, and decode from it,
// without allocating.
func TestCodecAllocatesNothing(t *testing.T) {
	val := bytes.Repeat([]byte{0xAB}, MaxValLen)
	req := Request{Op: OpPut, ID: 7, Key: bytes.Repeat([]byte{'k'}, MaxKeyLen), Val: val}
	resp := Response{Status: StOK, ID: 7, Val: val}
	buf := make([]byte, 0, 1+8+1+MaxKeyLen+2+MaxValLen)
	if a := testing.AllocsPerRun(100, func() {
		buf = AppendRequest(buf[:0], req)
		if _, err := DecodeRequest(buf); err != nil {
			t.Fatal(err)
		}
		buf = AppendResponse(buf[:0], resp)
		if _, err := DecodeResponse(buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("encoding and decoding a request and a response allocates %.0f times, want 0", a)
	}
}

// TestRoundTripsAllocateNothing pins the server's steady state: once a
// key's first PUT has allocated its value storage, a GET and a
// write-through PUT, each from request frame to reply frame, allocate
// nothing.
func TestRoundTripsAllocateNothing(t *testing.T) {
	fx := newFixture(t, 1, true)
	fx.blk.sync = true
	fx.nic.reuse = true
	tn := fx.srv.Tenant(0)
	val := bytes.Repeat([]byte{0x5A}, 64)
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"PUT", Request{Op: OpPut, ID: 1, Key: []byte("key"), Val: val}},
		{"GET", Request{Op: OpGet, ID: 2, Key: []byte("key")}},
	} {
		frame := netstack.AppendUDPFrame(nil, [6]byte(cliMAC), [6]byte(srvMAC), cliIP, srvIP,
			53000, tn.Port, AppendRequest(nil, tc.req))
		fx.ifc.NetifRx(frame, tn.Queue)
		if a := testing.AllocsPerRun(100, func() { fx.ifc.NetifRx(frame, tn.Queue) }); a != 0 {
			t.Fatalf("a %s round trip allocates %.0f times, want 0", tc.name, a)
		}
		r := decodeReply(t, fx.nic.last)
		if r.Status != StOK || r.ID != tc.req.ID || (tc.req.Op == OpGet && !bytes.Equal(r.Val, val)) {
			t.Fatalf("%s reply %+v", tc.name, r)
		}
	}
	if tn.Puts != 102 || tn.Gets != 102 || tn.PersistErrs != 0 || tn.ReplyErrs != 0 {
		t.Fatalf("counters %+v", *tn)
	}
}

// TestOverwriteKeepsNoStaleTail: a PUT rewrites the stored value in place.
// Overwriting a key with a shorter value, then a longer one, must return
// exactly the new bytes each time, and the stored value must not be a view
// of the request, which is valid only while it is served.
func TestOverwriteKeepsNoStaleTail(t *testing.T) {
	fx := newFixture(t, 1, true)
	tn := fx.srv.Tenant(0)
	for i, v := range []string{"a first value", "short", "a value longer than both before it"} {
		frame := netstack.AppendUDPFrame(nil, [6]byte(cliMAC), [6]byte(srvMAC), cliIP, srvIP,
			53000, tn.Port, AppendRequest(nil, Request{Op: OpPut, ID: uint64(2*i + 1), Key: []byte("k"), Val: []byte(v)}))
		fx.ifc.NetifRx(frame, tn.Queue)
		clear(frame)
		fx.loop.RunFor(sim.Millisecond)
		fx.send(tn, 53000, Request{Op: OpGet, ID: uint64(2*i + 2), Key: []byte("k")})
		if r := fx.lastReply(t, tn.Queue); r.Status != StOK || r.ID != uint64(2*i+2) || string(r.Val) != v {
			t.Fatalf("GET after PUT %q returned %+v (%q)", v, r, r.Val)
		}
	}
	if tn.PersistErrs != 0 {
		t.Fatalf("persist errors %d", tn.PersistErrs)
	}
}

// TestNestedReplyKeepsBothPayloads sends a reply from inside another
// reply's transmit: tenant 1's request is served while tenant 0's reply is
// on its way out. Both replies are built in the server's one reply buffer,
// so the nested reply overwrites the outer one's bytes; the outer frame
// must still carry its own payload, because UDPSendToQ copied it into the
// frame before transmitting.
func TestNestedReplyKeepsBothPayloads(t *testing.T) {
	fx := newFixture(t, 2, false)
	t0, t1 := fx.srv.Tenant(0), fx.srv.Tenant(1)
	outer, inner := bytes.Repeat([]byte("outer"), 20), []byte("in")
	fx.send(t0, 53000, Request{Op: OpPut, ID: 1, Key: []byte("a"), Val: outer})
	fx.send(t1, 53001, Request{Op: OpPut, ID: 2, Key: []byte("b"), Val: inner})

	fx.nic.onXmit = func() { fx.send(t1, 53001, Request{Op: OpGet, ID: 4, Key: []byte("b")}) }
	fx.send(t0, 53000, Request{Op: OpGet, ID: 3, Key: []byte("a")})
	if r := fx.lastReply(t, t0.Queue); r.Status != StOK || r.ID != 3 || !bytes.Equal(r.Val, outer) {
		t.Fatalf("outer reply %+v (%q)", r, r.Val)
	}
	if r := fx.lastReply(t, t1.Queue); r.Status != StOK || r.ID != 4 || !bytes.Equal(r.Val, inner) {
		t.Fatalf("nested reply %+v (%q)", r, r.Val)
	}
	// The nested reply did reuse the buffer the outer one was built in.
	if r, err := DecodeResponse(fx.srv.resp); err != nil || r.ID != 4 {
		t.Fatalf("reply buffer holds %+v (%v), want the nested reply", r, err)
	}
}
