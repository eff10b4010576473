package serve

import (
	"encoding/binary"
	"testing"
	"unsafe"
)

// TestConnSlotSize pins the reportable per-connection footprint: the whole
// point of the array-backed table is that an open connection costs an
// auditable 8 bytes.
func TestConnSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(connSlot{}); got != connSlotBytes {
		t.Fatalf("connSlot is %d bytes, want %d", got, connSlotBytes)
	}
}

// inflightOf reads the client's in-flight count, or -1 when it has no open
// connection.
func inflightOf(tab *ConnTable, client uint32) int {
	if i := tab.lookup(client); i >= 0 {
		return int(tab.slots[i].inflight)
	}
	return -1
}

func TestConnTableLifecycle(t *testing.T) {
	tab, err := NewConnTable(8)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Capacity() != 8 {
		t.Fatalf("capacity %d, want 8", tab.Capacity())
	}
	for _, c := range []uint32{0, 3, 7} {
		if !tab.Touch(c) {
			t.Fatalf("Touch(%d) rejected", c)
		}
	}
	if tab.Occupancy() != 3 || tab.Peak() != 3 || tab.Opens() != 3 {
		t.Fatalf("occupancy=%d peak=%d opens=%d, want 3/3/3", tab.Occupancy(), tab.Peak(), tab.Opens())
	}
	// Re-touching an open client does not reopen it.
	tab.Touch(3)
	if tab.Opens() != 3 || tab.Occupancy() != 3 {
		t.Fatalf("re-touch changed opens=%d occupancy=%d", tab.Opens(), tab.Occupancy())
	}
	if !tab.Close(3) {
		t.Fatal("Close(3) reported not open")
	}
	if tab.Close(3) {
		t.Fatal("double Close(3) reported open")
	}
	if tab.Occupancy() != 2 || tab.Closes() != 1 {
		t.Fatalf("after close: occupancy=%d closes=%d", tab.Occupancy(), tab.Closes())
	}
	// Reopening below the peak reuses the freed space.
	before := tab.StateBytes()
	tab.Touch(5)
	if tab.StateBytes() != before {
		t.Fatalf("reopen below the peak grew the table %d -> %d bytes", before, tab.StateBytes())
	}
	if tab.Peak() != 3 {
		t.Fatalf("peak %d, want 3", tab.Peak())
	}
}

func TestConnTableInflight(t *testing.T) {
	tab, err := NewConnTable(4)
	if err != nil {
		t.Fatal(err)
	}
	tab.Touch(2)
	tab.Touch(2)
	if got := inflightOf(tab, 2); got != 2 {
		t.Fatalf("inflight %d, want 2", got)
	}
	tab.Done(2)
	if got := inflightOf(tab, 2); got != 1 {
		t.Fatalf("inflight after Done %d, want 1", got)
	}
	// Done after close (the FIN-while-inflight case) is a no-op.
	tab.Close(2)
	tab.Done(2)
	// Out-of-range ids are rejected or ignored, never a panic.
	if tab.Touch(99) {
		t.Fatal("Touch out of range accepted")
	}
	tab.Done(99)
	if tab.Close(99) {
		t.Fatal("Close out of range reported open")
	}
}

// TestConnTableStateBytes: the footprint follows the peak number of open
// connections, whatever the population — at most four slots per peak
// connection (half full, doubling), never below the starting capacity.
func TestConnTableStateBytes(t *testing.T) {
	for _, clients := range []int{1000, 1 << 30} {
		tab, err := NewConnTable(clients)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tab.StateBytes(), int64(minConnSlots*connSlotBytes); got != want {
			t.Fatalf("%d clients: empty table holds %d bytes, want %d", clients, got, want)
		}
		for c := uint32(0); c < 100; c++ {
			tab.Touch(c * 7)
		}
		if got, bound := tab.StateBytes(), stateBound(tab.Peak()); got > bound {
			t.Fatalf("%d clients: %d bytes for peak %d, bound %d", clients, got, tab.Peak(), bound)
		}
		if got, least := tab.StateBytes(), int64(2*100*connSlotBytes); got < least {
			t.Fatalf("%d clients: %d bytes hold 100 connections at most half full, want >= %d", clients, got, least)
		}
	}
}

// stateBound is the most slot memory a table whose occupancy peaked at
// peak may hold.
func stateBound(peak int) int64 { return int64(max(minConnSlots, 4*peak)) * connSlotBytes }

func TestNewConnTableRejects(t *testing.T) {
	if _, err := NewConnTable(0); err == nil {
		t.Fatal("NewConnTable(0) accepted")
	}
	if _, err := NewConnTable(-5); err == nil {
		t.Fatal("NewConnTable(-5) accepted")
	}
}

// Fuzz op codes: each op is three bytes, a code and a little-endian client.
const (
	fuzzTouch = iota
	fuzzDone
	fuzzClose
	fuzzOps
)

// homedAt returns n client ids, all below clients, whose keys hash to slot
// in a table of minConnSlots slots.
func homedAt(slot, n int, clients uint32) []uint32 {
	tab := &ConnTable{}
	tab.resize(minConnSlots)
	var ids []uint32
	for c := uint32(0); c < clients && len(ids) < n; c++ {
		if tab.home(c+1) == slot {
			ids = append(ids, c)
		}
	}
	return ids
}

func fuzzProgram(ops ...[2]uint32) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, byte(op[0]))
		b = binary.LittleEndian.AppendUint16(b, uint16(op[1]))
	}
	return b
}

// FuzzConnTable checks random Touch, Done and Close calls against a Go map
// and checks the table's layout after every call: each open connection is
// reachable from its home slot without crossing an empty one, the table is
// at most half full, and its footprint stays within the peak bound. Client
// ids run a little past the population, so out-of-range ids come up. The
// seeds cover a probe run that wraps past the last slot and loses a member
// from its middle, a deletion that must move some members of a run and not
// others, growth from the starting capacity, and out-of-range ids.
func FuzzConnTable(f *testing.F) {
	const pop = 1000
	wrap := homedAt(minConnSlots-1, 3, pop)
	if len(wrap) < 3 {
		f.Fatalf("only %d of %d clients hash to the last slot", len(wrap), pop)
	}
	f.Add(uint16(pop), fuzzProgram(
		[2]uint32{fuzzTouch, wrap[0]}, [2]uint32{fuzzTouch, wrap[1]}, [2]uint32{fuzzTouch, wrap[2]},
		[2]uint32{fuzzClose, wrap[1]}, [2]uint32{fuzzDone, wrap[2]}, [2]uint32{fuzzClose, wrap[0]},
		[2]uint32{fuzzTouch, wrap[1]}, [2]uint32{fuzzClose, wrap[2]},
	))
	// A run over slots 5..8 whose members sit at, and past, their homes:
	// closing its head must shift the second and fourth members back and
	// leave the third at home.
	at5, at6, at7 := homedAt(5, 2, pop), homedAt(6, 1, pop), homedAt(7, 1, pop)
	f.Add(uint16(pop), fuzzProgram(
		[2]uint32{fuzzTouch, at5[0]}, [2]uint32{fuzzTouch, at5[1]}, [2]uint32{fuzzTouch, at7[0]},
		[2]uint32{fuzzTouch, at6[0]}, [2]uint32{fuzzClose, at5[0]}, [2]uint32{fuzzClose, at7[0]},
	))
	var grow [][2]uint32
	for c := uint32(0); c < 40; c++ {
		grow = append(grow, [2]uint32{fuzzTouch, c * 3})
	}
	for c := uint32(0); c < 40; c += 2 {
		grow = append(grow, [2]uint32{fuzzClose, c * 3}, [2]uint32{fuzzDone, c*3 + 3})
	}
	f.Add(uint16(pop), fuzzProgram(grow...))
	f.Add(uint16(4), fuzzProgram(
		[2]uint32{fuzzTouch, 3}, [2]uint32{fuzzTouch, 4}, [2]uint32{fuzzDone, 9},
		[2]uint32{fuzzClose, 11}, [2]uint32{fuzzClose, 3},
	))

	f.Fuzz(func(t *testing.T, population uint16, prog []byte) {
		clients := int(population%2048) + 1
		tab, err := NewConnTable(clients)
		if err != nil {
			t.Fatal(err)
		}
		model := map[uint32]uint32{}
		var opens, closes uint64
		peak := 0
		for ; len(prog) >= 3; prog = prog[3:] {
			c := uint32(binary.LittleEndian.Uint16(prog[1:])) % uint32(clients+8)
			in := int(c) < clients
			n, open := model[c]
			switch prog[0] % fuzzOps {
			case fuzzTouch:
				if got := tab.Touch(c); got != in {
					t.Fatalf("Touch(%d) = %v with %d clients", c, got, clients)
				}
				if in {
					if !open {
						opens++
					}
					model[c] = n + 1
					peak = max(peak, len(model))
				}
			case fuzzDone:
				tab.Done(c)
				if open && n > 0 {
					model[c] = n - 1
				}
			case fuzzClose:
				if got := tab.Close(c); got != open {
					t.Fatalf("Close(%d) = %v, want %v", c, got, open)
				}
				if open {
					delete(model, c)
					closes++
				}
			}
			checkConnTable(t, tab, model, opens, closes, peak)
		}
	})
}

// checkConnTable compares tab with the reference model and checks its
// layout.
func checkConnTable(t *testing.T, tab *ConnTable, model map[uint32]uint32, opens, closes uint64, peak int) {
	t.Helper()
	if tab.Occupancy() != len(model) || tab.Opens() != opens || tab.Closes() != closes || tab.Peak() != peak {
		t.Fatalf("occupancy/opens/closes/peak = %d/%d/%d/%d, model %d/%d/%d/%d",
			tab.Occupancy(), tab.Opens(), tab.Closes(), tab.Peak(), len(model), opens, closes, peak)
	}
	for c, n := range model {
		if got := inflightOf(tab, c); got != int(n) {
			t.Fatalf("client %d inflight %d, model %d", c, got, n)
		}
	}
	used := 0
	for i, s := range tab.slots {
		if s.key == 0 {
			continue
		}
		used++
		if _, ok := model[s.key-1]; !ok {
			t.Fatalf("slot %d holds closed client %d", i, s.key-1)
		}
		if j, ok := tab.find(s.key); !ok || j != i {
			t.Fatalf("client %d at slot %d is not reachable from its home slot %d", s.key-1, i, tab.home(s.key))
		}
	}
	if used != len(model) || 2*used > len(tab.slots) {
		t.Fatalf("%d of %d slots used for %d connections", used, len(tab.slots), len(model))
	}
	if got, bound := tab.StateBytes(), stateBound(peak); got > bound {
		t.Fatalf("%d state bytes for peak %d, bound %d", got, peak, bound)
	}
}
