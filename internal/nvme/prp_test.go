package nvme

import (
	"encoding/binary"
	"testing"
)

// prpCmd builds a read command of n bytes with explicit PRPs.
func prpCmd(cid uint16, blocks uint32, prp1, prp2 uint64) Command {
	cmd := Command{Opcode: OpRead, CID: cid, NSID: 1, PRP1: prp1, PRP2: prp2}
	cmd.SetNLB(blocks - 1)
	return cmd
}

func TestPRPSinglePageWithOffset(t *testing.T) {
	// PRP1 may carry a byte offset; a transfer that fits the rest of the
	// page needs no PRP2.
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(2*PageSize, PageSize)
	if c := tb.io(prpCmd(10, 4, buf+512, 0)); c.Status != StatusSuccess {
		t.Fatalf("offset PRP1 read status %#x", c.Status)
	}
}

func TestPRPUnalignedPRP2Rejected(t *testing.T) {
	// Direct PRP2 (two-page transfer) must be page aligned per spec.
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(4*PageSize, PageSize)
	if c := tb.io(prpCmd(11, 16, buf, buf+PageSize+512)); c.Status != StatusInvalidField {
		t.Fatalf("unaligned PRP2 status %#x, want invalid field", c.Status)
	}
}

func TestPRPListUnalignedEntryRejected(t *testing.T) {
	// A list entry that is not page aligned must fail the command.
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	data := tb.host.Alloc(8*PageSize, PageSize)
	list := tb.host.Alloc(PageSize, PageSize)
	entries := make([]byte, 16)
	binary.LittleEndian.PutUint64(entries[0:], data+PageSize)     // fine
	binary.LittleEndian.PutUint64(entries[8:], data+2*PageSize+8) // unaligned
	tb.host.Mem.Store().WriteBytes(list-tb.host.Mem.Base, entries)
	if c := tb.io(prpCmd(12, 24, data, list)); c.Status != StatusInvalidField {
		t.Fatalf("unaligned list entry status %#x, want invalid field", c.Status)
	}
}

func TestPRPListCrossingPageRejected(t *testing.T) {
	// The model supports one-page lists (512 entries = 2 MiB = MDTS); a
	// list pointer placed so the entries would cross its page must be
	// rejected rather than mis-read.
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	data := tb.host.Alloc(8*PageSize, PageSize)
	list := tb.host.Alloc(2*PageSize, PageSize)
	// 4 entries needed, pointer placed 16 bytes before the page end.
	ptr := list + PageSize - 16
	if c := tb.io(prpCmd(13, 40, data, ptr)); c.Status != StatusInvalidField {
		t.Fatalf("page-crossing list status %#x, want invalid field", c.Status)
	}
}

func TestPRPListMisalignedPointerRejected(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	data := tb.host.Alloc(8*PageSize, PageSize)
	list := tb.host.Alloc(PageSize, PageSize)
	if c := tb.io(prpCmd(14, 24, data, list+3)); c.Status != StatusInvalidField {
		t.Fatalf("misaligned list pointer status %#x, want invalid field", c.Status)
	}
}

func TestPRPListScatteredPagesFunctional(t *testing.T) {
	// A write through a deliberately scattered PRP list followed by a
	// contiguous read-back: the device must gather the pages in list
	// order.
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	// Three source pages, physically out of order.
	pages := []uint64{
		tb.host.Alloc(PageSize, PageSize),
		tb.host.Alloc(PageSize, PageSize),
		tb.host.Alloc(PageSize, PageSize),
	}
	content := make([]byte, 3*PageSize)
	for i := range content {
		content[i] = byte(i*11 + 5)
	}
	// Scatter: PRP1 = page A, list -> {page C, page B reversed physical
	// order is irrelevant; logical order is list order}.
	tb.host.Mem.Store().WriteBytes(pages[0]-tb.host.Mem.Base, content[:PageSize])
	tb.host.Mem.Store().WriteBytes(pages[2]-tb.host.Mem.Base, content[PageSize:2*PageSize])
	tb.host.Mem.Store().WriteBytes(pages[1]-tb.host.Mem.Base, content[2*PageSize:])
	list := tb.host.Alloc(PageSize, PageSize)
	entries := make([]byte, 16)
	binary.LittleEndian.PutUint64(entries[0:], pages[2])
	binary.LittleEndian.PutUint64(entries[8:], pages[1])
	tb.host.Mem.Store().WriteBytes(list-tb.host.Mem.Base, entries)

	wr := Command{Opcode: OpWrite, CID: 15, NSID: 1, PRP1: pages[0], PRP2: list}
	wr.SetNLB(uint32(3*PageSize/512) - 1)
	if c := tb.io(wr); c.Status != StatusSuccess {
		t.Fatalf("scattered write status %#x", c.Status)
	}

	dst := tb.host.Alloc(4*PageSize, PageSize)
	dlist := tb.host.Alloc(PageSize, PageSize)
	dentries := make([]byte, 16)
	binary.LittleEndian.PutUint64(dentries[0:], dst+PageSize)
	binary.LittleEndian.PutUint64(dentries[8:], dst+2*PageSize)
	tb.host.Mem.Store().WriteBytes(dlist-tb.host.Mem.Base, dentries)
	rd := prpCmd(16, uint32(3*PageSize/512), dst, dlist)
	if c := tb.io(rd); c.Status != StatusSuccess {
		t.Fatalf("read-back status %#x", c.Status)
	}
	got := make([]byte, 3*PageSize)
	tb.host.Mem.Store().ReadBytes(dst-tb.host.Mem.Base, got)
	for i := range got {
		if got[i] != content[i] {
			t.Fatalf("gather order broken at byte %d: got %#x want %#x", i, got[i], content[i])
		}
	}
}

func TestRegisterReads(t *testing.T) {
	tb := newTestbench(t, nil)
	// CAP before enable: MQES, doorbell stride, CSS.
	cap8 := make([]byte, 8)
	tb.host.Port.ReadCtrl(tb.bar+RegCAP, 8, cap8, nil)
	tb.k.Run(0)
	capv := binary.LittleEndian.Uint64(cap8)
	if mqes := capv&0xFFFF + 1; mqes < 16 {
		t.Errorf("CAP.MQES+1 = %d, want >= 16", mqes)
	}
	// VS: NVMe 1.4.
	vs := make([]byte, 4)
	tb.host.Port.ReadCtrl(tb.bar+RegVS, 4, vs, nil)
	tb.k.Run(0)
	if v := binary.LittleEndian.Uint32(vs); v>>16 != 1 {
		t.Errorf("VS major = %d, want 1", v>>16)
	}
	// CSTS.RDY flips with enable.
	csts := make([]byte, 4)
	tb.host.Port.ReadCtrl(tb.bar+RegCSTS, 4, csts, nil)
	tb.k.Run(0)
	if csts[0]&1 != 0 {
		t.Error("CSTS.RDY set before enable")
	}
	tb.enable()
	tb.host.Port.ReadCtrl(tb.bar+RegCSTS, 4, csts, nil)
	tb.k.Run(0)
	if csts[0]&1 != 1 {
		t.Error("CSTS.RDY clear after enable")
	}
}
