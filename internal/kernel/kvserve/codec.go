// Package kvserve is the tenant plane's workload: a sharded in-memory KV
// service layered on the unified queue-aware kernel API. Each tenant owns one
// UDP port, one NIC queue and one LBA region of the backing block device, so
// the per-queue IOMMU sub-domains and surgical recovery underneath become
// tenant isolation boundaries: a malicious or wedged driver queue is one
// tenant's outage, not the service's.
package kvserve

import (
	"encoding/binary"
	"fmt"
)

// Request opcodes.
const (
	OpGet = 1
	OpPut = 2
	OpDel = 3
)

// Response status codes.
const (
	StOK       = 0
	StNotFound = 1
	StErr      = 2
)

// Wire limits. Keys and values are bounded so a request always fits one
// UDP datagram and a stored pair always fits one block.
const (
	MaxKeyLen = 64
	MaxValLen = 1024
)

// Request is one tenant operation on the wire:
//
//	| op(1) | id(8 BE) | klen(1) | key | vlen(2 BE) | value |
//
// The value section is present only for OpPut.
type Request struct {
	Op  byte
	ID  uint64
	Key []byte
	Val []byte
}

// Response is the service's reply:
//
//	| status(1) | id(8 BE) | vlen(2 BE) | value |
//
// The id echoes the request so closed-loop clients can match replies — and
// discard duplicates produced by at-least-once TX replay after a recovery.
type Response struct {
	Status byte
	ID     uint64
	Val    []byte
}

// AppendRequest appends r's wire bytes to dst and returns the extended
// slice: a sender encodes into storage it reuses, and a dst with room for
// the request does not grow. It does not validate lengths beyond what the
// format can carry; DecodeRequest is the defensive side.
func AppendRequest(dst []byte, r Request) []byte {
	dst = append(dst, r.Op)
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = append(dst, byte(len(r.Key)))
	dst = append(dst, r.Key...)
	if r.Op == OpPut {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Val)))
		dst = append(dst, r.Val...)
	}
	return dst
}

// DecodeRequest parses an untrusted datagram. Every length is validated
// before use and trailing bytes are rejected — this parser faces whatever a
// tenant's client (or a fuzzer) puts on the wire.
func DecodeRequest(b []byte) (Request, error) {
	var r Request
	if len(b) < 1+8+1 {
		return r, fmt.Errorf("kvserve: request truncated (%d bytes)", len(b))
	}
	r.Op = b[0]
	if r.Op != OpGet && r.Op != OpPut && r.Op != OpDel {
		return r, fmt.Errorf("kvserve: unknown op %d", r.Op)
	}
	r.ID = binary.BigEndian.Uint64(b[1:9])
	klen := int(b[9])
	if klen == 0 || klen > MaxKeyLen {
		return r, fmt.Errorf("kvserve: key length %d out of range", klen)
	}
	rest := b[10:]
	if len(rest) < klen {
		return r, fmt.Errorf("kvserve: key truncated (%d of %d bytes)", len(rest), klen)
	}
	r.Key = rest[:klen]
	rest = rest[klen:]
	if r.Op != OpPut {
		if len(rest) != 0 {
			return r, fmt.Errorf("kvserve: %d trailing bytes", len(rest))
		}
		return r, nil
	}
	if len(rest) < 2 {
		return r, fmt.Errorf("kvserve: value length truncated")
	}
	vlen := int(binary.BigEndian.Uint16(rest))
	if vlen > MaxValLen {
		return r, fmt.Errorf("kvserve: value length %d out of range", vlen)
	}
	rest = rest[2:]
	if len(rest) != vlen {
		return r, fmt.Errorf("kvserve: value is %d bytes, header says %d", len(rest), vlen)
	}
	r.Val = rest
	return r, nil
}

// AppendResponse appends a reply's wire bytes to dst and returns the
// extended slice, like AppendRequest.
func AppendResponse(dst []byte, r Response) []byte {
	dst = append(dst, r.Status)
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Val)))
	return append(dst, r.Val...)
}

// DecodeResponse parses a reply on the client side.
func DecodeResponse(b []byte) (Response, error) {
	var r Response
	if len(b) < 1+8+2 {
		return r, fmt.Errorf("kvserve: response truncated (%d bytes)", len(b))
	}
	r.Status = b[0]
	r.ID = binary.BigEndian.Uint64(b[1:9])
	vlen := int(binary.BigEndian.Uint16(b[9:11]))
	if vlen > MaxValLen {
		return r, fmt.Errorf("kvserve: response value length %d out of range", vlen)
	}
	if len(b[11:]) != vlen {
		return r, fmt.Errorf("kvserve: response value is %d bytes, header says %d", len(b[11:]), vlen)
	}
	r.Val = b[11:]
	return r, nil
}
