package serve

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// connSlot is one open connection's state: the client id plus one (0 marks
// an empty slot) and the requests dispatched but not yet answered. The
// table is an array of these — not a map of pointers — so the
// per-connection footprint is a fixed, reportable 8 bytes.
// TestConnSlotSize pins the size.
type connSlot struct {
	key      uint32
	inflight uint32
}

// connSlotBytes is the asserted per-connection state footprint.
const connSlotBytes = 8

// minConnSlots is the table's starting capacity.
const minConnSlots = 16

// ConnTable tracks open connections for up to a configured client
// population. It is one open-addressed hash table: linear probing from a
// multiplicative hash, at most half full, doubling on growth, and deleting
// by backward shift so no tombstones build up. Its footprint follows the
// peak number of open connections, not the population: a million-client
// fleet that keeps 23k connections open at once pays for 64k slots, and
// StateBytes reports the real footprint either way.
type ConnTable struct {
	slots   []connSlot
	shift   uint // 32 - log2(len(slots)): the hash bits that pick a home slot
	clients int
	open    int
	peak    int
	opens   uint64
	closes  uint64
}

// NewConnTable builds a table for client ids in [0, clients).
func NewConnTable(clients int) (*ConnTable, error) {
	if clients < 1 || clients > math.MaxInt32 {
		return nil, fmt.Errorf("serve: connection table needs 1..%d clients, got %d", math.MaxInt32, clients)
	}
	t := &ConnTable{clients: clients}
	t.resize(minConnSlots)
	return t, nil
}

// Capacity is the client population the table can address.
func (t *ConnTable) Capacity() int { return t.clients }

// home is key's preferred slot: the top bits of a Fibonacci hash, which
// spread consecutive client ids across the whole table.
func (t *ConnTable) home(key uint32) int { return int((key * 0x9e3779b9) >> t.shift) }

// find returns the slot holding key, or the empty slot ending its probe run
// and false.
func (t *ConnTable) find(key uint32) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// lookup returns the client's open slot, or -1 when the client is out of
// range or has no open connection.
func (t *ConnTable) lookup(client uint32) int {
	if int(client) >= t.clients {
		return -1
	}
	if i, ok := t.find(client + 1); ok {
		return i
	}
	return -1
}

// resize rehashes every open connection into n slots (a power of two).
func (t *ConnTable) resize(n int) {
	old := t.slots
	t.slots = make([]connSlot, n)
	t.shift = uint(33 - bits.Len(uint(n)))
	for _, s := range old {
		if s.key != 0 {
			i, _ := t.find(s.key)
			t.slots[i] = s
		}
	}
}

// Touch records a request on the client's connection, opening it first if
// closed, and reports false when the client id is out of range.
func (t *ConnTable) Touch(client uint32) bool {
	if int(client) >= t.clients {
		return false
	}
	key := client + 1
	i, ok := t.find(key)
	if !ok {
		if 2*(t.open+1) > len(t.slots) {
			t.resize(2 * len(t.slots))
			i, _ = t.find(key)
		}
		t.slots[i].key = key
		t.open++
		t.opens++
		if t.open > t.peak {
			t.peak = t.open
		}
	}
	t.slots[i].inflight++
	return true
}

// Done retires one in-flight request on the client's connection.
func (t *ConnTable) Done(client uint32) {
	if i := t.lookup(client); i >= 0 && t.slots[i].inflight > 0 {
		t.slots[i].inflight--
	}
}

// Close releases the client's connection, reporting whether it was open.
// The entries after it in its probe run shift back over the hole, each as
// far as its home slot allows, so every run stays unbroken.
func (t *ConnTable) Close(client uint32) bool {
	i := t.lookup(client)
	if i < 0 {
		return false
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies on its probe
		// path, from its home slot up to j.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = connSlot{}
	t.open--
	t.closes++
	return true
}

// Occupancy is the number of currently open connections.
func (t *ConnTable) Occupancy() int { return t.open }

// Peak is the highest concurrent occupancy seen.
func (t *ConnTable) Peak() int { return t.peak }

// Opens and Closes count lifetime connection transitions.
func (t *ConnTable) Opens() uint64 { return t.opens }

// Closes counts lifetime connection closes.
func (t *ConnTable) Closes() uint64 { return t.closes }

// StateBytes is the table's connection-state footprint: its slot array.
func (t *ConnTable) StateBytes() int64 {
	return int64(cap(t.slots)) * int64(unsafe.Sizeof(connSlot{}))
}
