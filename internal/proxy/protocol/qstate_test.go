package protocol

import (
	"bytes"
	"errors"
	"testing"
)

// TestQStateRoundTrip pins the per-queue epoch framing: queue, epoch and
// flags survive encode→decode at the boundaries of each field.
func TestQStateRoundTrip(t *testing.T) {
	cases := []QState{
		{Queue: 0, Epoch: 0, Flags: QStateParked},
		{Queue: 3, Epoch: 7, Flags: QStateArmed},
		{Queue: MaxQStateQueue, Epoch: ^uint32(0), Flags: QStateArmed},
	}
	for _, c := range cases {
		got, err := DecodeQState(AppendQState(nil, c))
		if err != nil {
			t.Fatalf("decode(%+v): %v", c, err)
		}
		if got != c {
			t.Fatalf("round trip %+v -> %+v", c, got)
		}
		if got.Parked() != (c.Flags == QStateParked) || got.Armed() != (c.Flags == QStateArmed) {
			t.Fatalf("flag accessors disagree for %+v", got)
		}
	}
}

// TestQStateRejectsMalformed covers the defensive decode paths a hostile or
// corrupted ring peer can hit.
func TestQStateRejectsMalformed(t *testing.T) {
	good := AppendQState(nil, QState{Queue: 1, Epoch: 2, Flags: QStateArmed})
	cases := map[string]struct {
		buf  []byte
		want error
	}{
		"nil":       {nil, ErrQStateSize},
		"short":     {good[:QStateLen-1], ErrQStateSize},
		"slack":     {append(append([]byte{}, good...), 0xEE), ErrQStateSize},
		"noflags":   {[]byte{1, 0, 0, 0, 0, 0, 0}, ErrQStateFlags},
		"bothflags": {[]byte{1, 0, 0, 0, 0, 0, QStateParked | QStateArmed}, ErrQStateFlags},
		"unknown":   {[]byte{1, 0, 0, 0, 0, 0, 1 << 5}, ErrQStateFlags},
	}
	for name, c := range cases {
		if _, err := DecodeQState(c.buf); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}
	// Senders own their frames: out-of-range encodes are programming
	// errors, not attacker input, and panic.
	for _, bad := range []QState{
		{Queue: -1, Flags: QStateArmed},
		{Queue: MaxQStateQueue + 1, Flags: QStateArmed},
		{Queue: 0, Flags: 0},
		{Queue: 0, Flags: QStateParked | QStateArmed},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("encode(%+v) did not panic", bad)
				}
			}()
			AppendQState(nil, bad)
		}()
	}
}

// FuzzDecodeQState drives the defensive decoder with arbitrary ring bytes:
// it must never panic, and every accepted frame must re-encode to the exact
// input (the codec is canonical), also into a reused, garbage-filled
// buffer.
func FuzzDecodeQState(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(AppendQState(nil, QState{Queue: 0, Epoch: 0, Flags: QStateParked}))
	f.Add(AppendQState(nil, QState{Queue: MaxQStateQueue, Epoch: ^uint32(0), Flags: QStateArmed}))
	f.Add([]byte{1, 0, 0, 0, 0, 0, QStateParked | QStateArmed})
	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := DecodeQState(buf)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendQState(nil, s), buf) {
			t.Fatal("decode/encode mismatch")
		}
		reused := bytes.Repeat([]byte{0xEE}, QStateLen)
		if !bytes.Equal(AppendQState(reused[:0], s), buf) {
			t.Fatal("encode into a reused buffer differs")
		}
	})
}

// TestQStateCodecAllocatesNothing pins the park and armed frames to caller
// storage: encoding into a QStateLen array and decoding allocate nothing.
func TestQStateCodecAllocatesNothing(t *testing.T) {
	in := QState{Queue: 3, Epoch: 9, Flags: QStateArmed}
	var frame [QStateLen]byte
	var out QState
	if a := testing.AllocsPerRun(100, func() {
		var err error
		if out, err = DecodeQState(AppendQState(frame[:0], in)); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("qstate encode+decode allocates %v times", a)
	}
	if out != in {
		t.Fatalf("round trip through caller storage gave %+v", out)
	}
}
