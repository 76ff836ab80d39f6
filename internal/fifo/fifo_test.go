package fifo

import (
	"testing"
	"testing/quick"
)

func TestQueueOrderAcrossWrap(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	// Interleave pushes and pops so the head walks around the ring while
	// it grows.
	for round := 1; round <= 20; round++ {
		for i := 0; i < round; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round/2; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d of %d", want, next)
	}
}

func TestQueueReuseAllocatesNothing(t *testing.T) {
	var q Queue[int]
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	if len(q.buf) != 8 {
		t.Fatalf("storage %d slots after draining cycles of 8, want 8", len(q.buf))
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); n != 0 {
		t.Fatalf("steady-state push/pop allocates %v times per cycle", n)
	}
}

func TestQueueOfAdoptsSlice(t *testing.T) {
	q := Of([]string{"a", "b"})
	q.Push("c")
	for _, want := range []string{"a", "b", "c"} {
		if got := q.Pop(); got != want {
			t.Fatalf("pop = %q, want %q", got, want)
		}
	}
}

func TestQueuePopZeroesSlot(t *testing.T) {
	var q Queue[*int]
	v := 1
	q.Push(&v)
	q.Pop()
	for _, p := range q.buf {
		if p != nil {
			t.Fatal("popped slot still references its element")
		}
	}
}

func TestQueueClear(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("len %d after Clear", q.Len())
	}
	q.Push(9)
	if q.Peek() != 9 {
		t.Fatal("queue unusable after Clear")
	}
}

func TestQueueEmptyPopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop on empty queue did not panic")
		}
	}()
	var q Queue[int]
	q.Pop()
}

// Property: any sequence of pushes (true) and pops (false) behaves like a
// slice queue.
func TestQueueMatchesSliceModel(t *testing.T) {
	f := func(ops []bool) bool {
		var q Queue[int]
		var model []int
		for i, push := range ops {
			if push || len(model) == 0 {
				q.Push(i)
				model = append(model, i)
				continue
			}
			if q.Pop() != model[0] {
				return false
			}
			model = model[1:]
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
