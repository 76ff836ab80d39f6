package fifo

import (
	"bytes"
	"math/rand"
	"testing"
)

// bytesModel drives a Bytes and the [][]byte queue it must behave like,
// checking every popped string against the model.
type bytesModel struct {
	t     *testing.T
	b     Bytes
	model [][]byte
	seq   byte
	peak  int // most bytes queued at once
}

func (m *bytesModel) push(n int) {
	p := make([]byte, n)
	for i := range p {
		p[i] = m.seq + byte(i)
	}
	m.seq++
	m.b.Push(p)
	m.model = append(m.model, p)
	m.peak = max(m.peak, m.b.used)
}

func (m *bytesModel) pop() {
	m.t.Helper()
	if got := m.b.Peek(); !bytes.Equal(got, m.model[0]) {
		m.t.Fatalf("peek = %d bytes %x..., want %d bytes %x...", len(got), head(got), len(m.model[0]), head(m.model[0]))
	}
	m.b.Pop()
	m.model = m.model[1:]
}

func (m *bytesModel) clear() {
	m.b.Clear()
	m.model = nil
}

func (m *bytesModel) check() {
	m.t.Helper()
	if m.b.Len() != len(m.model) {
		m.t.Fatalf("len = %d, want %d", m.b.Len(), len(m.model))
	}
}

func head(p []byte) []byte { return p[:min(len(p), 4)] }

func TestBytes(t *testing.T) {
	const push, pop, clear = 0, 1, 2
	type op struct{ kind, n int }
	for _, tc := range []struct {
		name     string
		ops      []op
		wantSize int // ring storage after the ops
		wantTail int // where the next string goes
	}{
		{
			name:     "first push sizes the ring to fit",
			ops:      []op{{push, 1514}},
			wantSize: 2048, wantTail: 1514,
		},
		{
			name:     "a drained ring starts over at 0",
			ops:      []op{{push, 40}, {pop, 0}, {push, 60}},
			wantSize: 64, wantTail: 60,
		},
		{
			name:     "no room at the tail wraps to the front",
			ops:      []op{{push, 24}, {push, 24}, {pop, 0}, {push, 20}},
			wantSize: 64, wantTail: 20,
		},
		{
			name:     "popping past the wrap point unwraps",
			ops:      []op{{push, 24}, {push, 24}, {pop, 0}, {push, 20}, {pop, 0}, {push, 30}},
			wantSize: 64, wantTail: 50,
		},
		{
			name:     "growth while wrapped keeps the order",
			ops:      []op{{push, 24}, {push, 24}, {pop, 0}, {push, 20}, {push, 30}},
			wantSize: 128, wantTail: 74,
		},
		{
			name:     "growth doubles until the queued bytes fit",
			ops:      []op{{push, 60}, {push, 1514}},
			wantSize: 2048, wantTail: 1574,
		},
		{
			name:     "empty strings take no room",
			ops:      []op{{push, 64}, {push, 0}, {pop, 0}, {push, 0}},
			wantSize: 64, wantTail: 64,
		},
		{
			name:     "clear keeps the storage",
			ops:      []op{{push, 40}, {push, 20}, {clear, 0}, {push, 64}},
			wantSize: 64, wantTail: 64,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &bytesModel{t: t}
			for _, o := range tc.ops {
				switch o.kind {
				case push:
					m.push(o.n)
				case pop:
					m.pop()
				case clear:
					m.clear()
				}
				m.check()
			}
			if len(m.b.buf) != tc.wantSize || m.b.tail != tc.wantTail {
				t.Errorf("storage %d bytes, tail %d; want %d, %d", len(m.b.buf), m.b.tail, tc.wantSize, tc.wantTail)
			}
			for len(m.model) > 0 {
				m.pop()
			}
			m.check()
		})
	}
}

// TestBytesMatchesModelSeeded runs a long seeded mix of wire-sized (60 B)
// and full (1514 B) frames through one FIFO, with bursts deep enough to
// grow it and drains that walk the head round the ring, and checks every
// popped frame against the model. Storage must stay proportional to the
// bytes in flight.
func TestBytesMatchesModelSeeded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := &bytesModel{t: t}
	for i := 0; i < 200_000; i++ {
		depth := 64
		if i/20_000%2 == 1 {
			depth = 8 // alternate deep and shallow phases
		}
		if len(m.model) > 0 && (len(m.model) >= depth || r.Intn(2) == 0) {
			m.pop()
			continue
		}
		n := 60
		if r.Intn(4) == 0 {
			n = 1514
		}
		m.push(n)
	}
	m.check()
	if limit := 2 * (m.peak + 2*1514); len(m.b.buf) > limit {
		t.Fatalf("storage %d bytes for at most %d queued (limit %d)", len(m.b.buf), m.peak, limit)
	}
}

// TestBytesPeekSurvivesPush: a view of the oldest string stays intact while
// later pushes fill the ring, wrap and grow it — a link endpoint may send
// while it holds the frame being delivered.
func TestBytesPeekSurvivesPush(t *testing.T) {
	var b Bytes
	b.Push(bytes.Repeat([]byte{1}, 24))
	b.Push(bytes.Repeat([]byte{2}, 24))
	b.Pop()
	v := b.Peek()
	for i := 0; i < 40; i++ {
		b.Push(bytes.Repeat([]byte{byte(3 + i)}, 20+i))
		if !bytes.Equal(v, bytes.Repeat([]byte{2}, 24)) {
			t.Fatalf("view changed after push %d (storage %d bytes)", i, len(b.buf))
		}
	}
}

func TestBytesSteadyStateAllocatesNothing(t *testing.T) {
	var b Bytes
	frame := make([]byte, 1514)
	cycle := func() {
		for i := 0; i < 16; i++ {
			b.Push(frame[:60+i*90])
		}
		for b.Len() > 0 {
			b.Peek()
			b.Pop()
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state push/pop allocates %v times per cycle", n)
	}
}

func TestBytesPeekEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("peek on empty FIFO did not panic")
		}
	}()
	var b Bytes
	b.Peek()
}

// FuzzBytes drives Push, Pop and Clear from the input against the
// [][]byte model: each input byte is one operation, and a push's length
// comes from the byte's high bits (0 to 1512 bytes).
func FuzzBytes(f *testing.F) {
	f.Add([]byte{0x04, 0x08, 0x01, 0xFC, 0x01, 0x02, 0x03})
	f.Add(bytes.Repeat([]byte{0xF8, 0x09, 0x01}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &bytesModel{t: t}
		for _, o := range ops {
			switch o & 3 {
			case 0, 1:
				m.push(int(o>>2) * 24)
			case 2:
				if len(m.model) > 0 {
					m.pop()
				}
			case 3:
				m.clear()
			}
			m.check()
		}
		for len(m.model) > 0 {
			m.pop()
		}
	})
}
