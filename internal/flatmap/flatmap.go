// Package flatmap provides Map, the hash table the host model uses for
// tables that churn: entries keyed by a request tag or a page address that
// are inserted when work starts and deleted when it ends, millions of times
// a run, with only a few dozen live at once (the block core's in-flight
// requests and replay log, the block proxy's tag slots, revoked pages, the
// tracer's latency stamps).
//
// Go's built-in map reclaims deleted slots only by growing: a delete from
// a full group leaves a tombstone, and the table grows when tombstones and
// live entries use up its free slots. Which groups fill depends on the
// map's random per-process hash seed, so a churned built-in map allocates
// at different instants, and different amounts, in every run of the same
// deterministic workload. Map probes linearly and deletes by shifting the
// following entries back, so it leaves no tombstones, and it grows only when
// its live count passes half its capacity. What it allocates is therefore a
// function of the sequence of operations alone, and a table whose live count
// has reached its high-water mark never allocates again.
package flatmap

import "iter"

// Map is a hash table from K to V. The zero value is an empty map ready to
// use.
type Map[K ~uint64, V any] struct {
	slots []slot[K, V] // len is zero or a power of two
	shift uint         // 64 - log2(len(slots))
	n     int
}

type slot[K ~uint64, V any] struct {
	key  K
	used bool
	val  V
}

const minSlots = 8

// home is k's preferred slot: Fibonacci hashing, so keys that differ only
// in their high bits (page addresses) or are consecutive (tags) spread over
// the table.
func (m *Map[K, V]) home(k K) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> m.shift)
}

// find returns k's slot index, or -1.
func (m *Map[K, V]) find(k K) int {
	if m.n == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	for i := m.home(k); m.slots[i].used; i = (i + 1) & mask {
		if m.slots[i].key == k {
			return i
		}
	}
	return -1
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.n }

// Get returns k's value and whether k is present.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if i := m.find(k); i >= 0 {
		return m.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
func (m *Map[K, V]) Has(k K) bool { return m.find(k) >= 0 }

// Put sets k's value, adding k if it is absent.
func (m *Map[K, V]) Put(k K, v V) {
	if i := m.find(k); i >= 0 {
		m.slots[i].val = v
		return
	}
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	m.insert(k, v)
	m.n++
}

// insert places an absent k; the table has a free slot.
func (m *Map[K, V]) insert(k K, v V) {
	mask := len(m.slots) - 1
	i := m.home(k)
	for m.slots[i].used {
		i = (i + 1) & mask
	}
	m.slots[i] = slot[K, V]{key: k, used: true, val: v}
}

// grow doubles the table (to minSlots from empty) and rehashes every entry.
func (m *Map[K, V]) grow() {
	old := m.slots
	n := max(2*len(old), minSlots)
	m.slots = make([]slot[K, V], n)
	m.shift = 64
	for ; n > 1; n >>= 1 {
		m.shift--
	}
	for i := range old {
		if old[i].used {
			m.insert(old[i].key, old[i].val)
		}
	}
}

// Delete removes k and returns the value it had, or reports false if k was
// absent.
func (m *Map[K, V]) Delete(k K) (V, bool) {
	i := m.find(k)
	if i < 0 {
		var zero V
		return zero, false
	}
	v := m.slots[i].val
	m.deleteAt(i)
	return v, true
}

// deleteAt empties slot i and shifts back every later entry of its probe
// run that may move into the hole, so no lookup ever has to step over a
// deleted slot.
func (m *Map[K, V]) deleteAt(i int) {
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then i comes before its home.
		if h := m.home(m.slots[j].key); (j-h)&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot[K, V]{}
	m.n--
}

// Pop removes and returns the entry in the lowest occupied slot, or reports
// false when the map is empty. Repeated Pops drain the map in an order that
// depends only on its contents and history.
func (m *Map[K, V]) Pop() (K, V, bool) {
	for i := range m.slots {
		if m.slots[i].used {
			k, v := m.slots[i].key, m.slots[i].val
			m.deleteAt(i)
			return k, v, true
		}
	}
	var (
		zk K
		zv V
	)
	return zk, zv, false
}

// DeleteFunc removes every entry for which del returns true. del sees every
// entry, each one it deletes exactly once; an entry it keeps may be shown to
// it again, so del's answer must depend only on the entry.
func (m *Map[K, V]) DeleteFunc(del func(K, V) bool) {
	for i := 0; i < len(m.slots); {
		s := &m.slots[i]
		if s.used && del(s.key, s.val) {
			// The shift may move a later entry into slot i: look again.
			m.deleteAt(i)
			continue
		}
		i++
	}
}

// All returns an iterator over the entries in slot order. The map must not
// change during the walk.
func (m *Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for i := range m.slots {
			if s := &m.slots[i]; s.used && !yield(s.key, s.val) {
				return
			}
		}
	}
}

// Clear removes every entry and keeps the storage.
func (m *Map[K, V]) Clear() {
	clear(m.slots)
	m.n = 0
}
