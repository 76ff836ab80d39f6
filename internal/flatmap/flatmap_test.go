package flatmap

import (
	"maps"
	"slices"
	"testing"
)

// check compares m with the reference map: length, every key's value, and
// the walk visiting exactly the reference's entries.
func check(t *testing.T, m *Map[uint64, int], ref map[uint64]int) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want || !m.Has(k) {
			t.Fatalf("Get(%#x) = %d, %v, want %d, true", k, got, ok, want)
		}
	}
	if _, ok := m.Get(1); ok || m.Has(1) {
		t.Fatal("found key 1, which no operation adds")
	}
	seen := map[uint64]int{}
	for k, v := range m.All() {
		if _, dup := seen[k]; dup {
			t.Fatalf("All yields %#x twice", k)
		}
		seen[k] = v
	}
	if !maps.Equal(seen, ref) {
		t.Fatalf("All = %v, want %v", seen, ref)
	}
}

// FuzzMap runs a byte-coded sequence of operations on a Map and on a
// built-in map and requires them to agree after every step. Keys come
// from a small space, shifted so they collide in the table's home slots,
// so probe runs wrap around the table's end and deletions shift entries.
func FuzzMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 4, 0})
	f.Add([]byte{0, 9, 0, 17, 0, 25, 0, 33, 2, 0, 3, 1, 1, 17, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var m Map[uint64, int]
		ref := map[uint64]int{}
		for i := 0; i+1 < len(ops); i += 2 {
			k := uint64(ops[i+1]&63) << 40
			switch ops[i] % 6 {
			case 0, 1:
				m.Put(k, i)
				ref[k] = i
			case 2:
				got, ok := m.Delete(k)
				want, wantOK := ref[k]
				if ok != wantOK || got != want {
					t.Fatalf("Delete(%#x) = %d, %v, want %d, %v", k, got, ok, want, wantOK)
				}
				delete(ref, k)
			case 3:
				k, v, ok := m.Pop()
				if ok != (len(ref) > 0) {
					t.Fatalf("Pop ok = %v with %d entries", ok, len(ref))
				}
				if ok {
					if want, in := ref[k]; !in || want != v {
						t.Fatalf("Pop = %#x, %d, not an entry", k, v)
					}
					delete(ref, k)
				}
			case 4:
				// Delete the keys whose low key bit matches the operand's.
				bit := uint64(ops[i+1]) & 1 << 40
				deleted := map[uint64]bool{}
				m.DeleteFunc(func(k uint64, v int) bool {
					if ref[k] != v {
						t.Fatalf("DeleteFunc shows %#x = %d, want %d", k, v, ref[k])
					}
					if deleted[k] {
						t.Fatalf("DeleteFunc shows deleted %#x", k)
					}
					del := k&(1<<40) == bit
					deleted[k] = del
					return del
				})
				for k := range ref {
					if _, shown := deleted[k]; !shown {
						t.Fatalf("DeleteFunc never shows %#x", k)
					}
				}
				maps.DeleteFunc(ref, func(k uint64, _ int) bool { return deleted[k] })
			case 5:
				if ops[i+1] == 0 {
					m.Clear()
					clear(ref)
				}
			}
			check(t, &m, ref)
		}
	})
}

// TestDeleteInWrappedRun builds one probe run across the table's end: three
// keys at home in the last slot and two at home in slot 0, so the run is
// 15, 0, 1, 2, 3. Deleting any member must leave the others findable, which
// only holds if the entries after the hole move back exactly when their home
// allows it.
func TestDeleteInWrappedRun(t *testing.T) {
	const last = 15 // a 16-slot table holds 5 to 8 entries
	var probe Map[uint64, int]
	probe.shift = 60
	var keys []uint64
	for _, home := range []int{last, last, last, 0, 0} {
		k := uint64(len(keys)) << 32
		for probe.home(k) != home || slices.Contains(keys, k) {
			k++
		}
		keys = append(keys, k)
	}
	for victim := range keys {
		var m Map[uint64, int]
		ref := map[uint64]int{}
		for i, k := range keys {
			m.Put(k, i)
			ref[k] = i
		}
		if len(m.slots) != last+1 {
			t.Fatalf("%d slots, want %d", len(m.slots), last+1)
		}
		m.Delete(keys[victim])
		delete(ref, keys[victim])
		check(t, &m, ref)
	}
}

// TestChurnAllocatesOnlyToHighWater is the property the package exists
// for: inserting and deleting with at most 40 entries live allocates only
// while the table grows to hold 40, and never again.
func TestChurnAllocatesOnlyToHighWater(t *testing.T) {
	var m Map[uint64, [4]uint64]
	tag := uint64(0)
	churn := func() {
		for i := 0; i < 1000; i++ {
			m.Put(tag, [4]uint64{tag})
			if tag >= 40 {
				if _, ok := m.Delete(tag - 40); !ok {
					t.Fatalf("tag %d missing", tag-40)
				}
			}
			tag++
		}
	}
	churn()
	if m.Len() != 40 || len(m.slots) != 128 {
		t.Fatalf("Len %d in %d slots, want 40 in 128", m.Len(), len(m.slots))
	}
	if a := testing.AllocsPerRun(20, churn); a != 0 {
		t.Fatalf("steady churn allocates %v times per 1,000 operations", a)
	}
}

// TestPopDrainsInSlotOrder pins Pop's order: the walk's order, so a drain
// repeats exactly for the same history.
func TestPopDrainsInSlotOrder(t *testing.T) {
	var m Map[uint64, int]
	for k := range uint64(100) {
		m.Put(k*4096, int(k))
	}
	var walk, popped []uint64
	for k := range m.All() {
		walk = append(walk, k)
	}
	for {
		k, _, ok := m.Pop()
		if !ok {
			break
		}
		popped = append(popped, k)
	}
	if !slices.Equal(walk, popped) || len(popped) != 100 || m.Len() != 0 {
		t.Fatalf("popped %d keys %v, walk %v", len(popped), popped, walk)
	}
}
