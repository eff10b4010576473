package nvme

import (
	"encoding/binary"
	"testing"
)

// TestCommandsRecycleZeroed runs reads and writes through both PRP forms
// (one page, and a PRP list) plus an admin command, then checks that every
// recycled command came back zeroed, keeping only its device, the backing
// arrays of its extents and PRP list, and its bound stage callbacks, and
// that repeating the traffic reuses the commands instead of building new
// ones.
func TestCommandsRecycleZeroed(t *testing.T) {
	tb := newTestbench(t, nil)
	defer tb.k.Close()
	tb.enable()
	tb.createIOQueues()
	const pages = 4
	buf := tb.host.Alloc(pages*PageSize, PageSize)
	list := tb.host.Alloc(PageSize, PageSize)
	for i := 1; i < pages; i++ {
		tb.host.Mem.Store().WriteBytes(list-tb.host.Mem.Base+uint64(8*(i-1)), binary.LittleEndian.AppendUint64(nil, buf+uint64(i*PageSize)))
	}
	traffic := func() {
		for _, op := range []uint8{OpWrite, OpRead} {
			small := Command{Opcode: op, CID: 1, NSID: 1, PRP1: buf}
			small.SetNLB(PageSize/512 - 1)
			big := Command{Opcode: op, CID: 2, NSID: 1, PRP1: buf, PRP2: list}
			big.SetNLB(pages*PageSize/512 - 1)
			for _, cmd := range []Command{small, big} {
				if c := tb.io(cmd); c.Status != StatusSuccess {
					t.Fatalf("op %#x over %d bytes: status %#x", op, (cmd.NLB()+1)*512, c.Status)
				}
			}
		}
		if c := tb.admin(Command{Opcode: OpSetFeatures, CID: 9, CDW10: uint32(FeatureNumQueues)}); c.Status != StatusSuccess {
			t.Fatalf("set features: status %#x", c.Status)
		}
	}
	traffic()
	free := len(tb.dev.cmdFree)
	if free == 0 || len(tb.dev.fetchFree) == 0 {
		t.Fatalf("free lists empty after traffic: %d commands, %d fetches", free, len(tb.dev.fetchFree))
	}
	traffic()
	if len(tb.dev.cmdFree) != free {
		t.Errorf("repeated traffic grew the command free list %d -> %d", free, len(tb.dev.cmdFree))
	}
	for _, c := range tb.dev.cmdFree {
		if c.d != tb.dev || c.q != nil || c.cmd != (Command{}) || c.dup || c.status != 0 || c.dw0 != 0 || c.resume != nil ||
			c.total != 0 || c.off != 0 || len(c.runs) != 0 || len(c.listBuf) != 0 || !c.media.IsNil() ||
			c.outstanding != 0 || c.cqe != [CQESize]byte{} || !c.released {
			t.Fatalf("released command not zeroed: %+v", *c)
		}
		if c.stage.execute == nil || c.stage.prpList == nil || c.stage.cqeSent == nil {
			t.Fatal("released command lost its bound stage callbacks")
		}
	}
}
