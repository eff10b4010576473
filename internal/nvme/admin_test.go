package nvme

import (
	"bytes"
	"testing"
)

func TestAdminDuplicateCQRejected(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues() // creates pair 1
	c := tb.admin(Command{Opcode: OpCreateIOCQ, CID: 9, PRP1: tb.ioCQ,
		CDW10: 1 | uint32(tbDepth-1)<<16, CDW11: 1})
	if c.Status != StatusInvalidField {
		t.Fatalf("duplicate CQ create status %#x", c.Status)
	}
}

func TestAdminQIDBeyondMaxRejected(t *testing.T) {
	tb := newTestbench(t, func(c *Config) { c.MaxIOQueuePairs = 2 })
	tb.enable()
	c := tb.admin(Command{Opcode: OpCreateIOCQ, CID: 9, PRP1: tb.ioCQ,
		CDW10: 7 | uint32(tbDepth-1)<<16, CDW11: 1})
	if c.Status != StatusInvalidField {
		t.Fatalf("over-max QID status %#x", c.Status)
	}
}

func TestAdminNonContiguousQueueRejected(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	// PC bit clear: the model (like most controllers) requires physically
	// contiguous queues.
	c := tb.admin(Command{Opcode: OpCreateIOCQ, CID: 9, PRP1: tb.ioCQ,
		CDW10: 1 | uint32(tbDepth-1)<<16, CDW11: 0})
	if c.Status != StatusInvalidField {
		t.Fatalf("non-contiguous CQ status %#x", c.Status)
	}
}

func TestAdminMismatchedSQSizeRejected(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	if c := tb.admin(Command{Opcode: OpCreateIOCQ, CID: 1, PRP1: tb.ioCQ,
		CDW10: 1 | uint32(tbDepth-1)<<16, CDW11: 1}); c.Status != StatusSuccess {
		t.Fatalf("CQ create: %#x", c.Status)
	}
	// SQ depth differs from its CQ: rejected by the paired-queue model.
	c := tb.admin(Command{Opcode: OpCreateIOSQ, CID: 2, PRP1: tb.ioSQ,
		CDW10: 1 | uint32(tbDepth/2-1)<<16, CDW11: 1 | 1<<16})
	if c.Status != StatusInvalidField {
		t.Fatalf("mismatched SQ size status %#x", c.Status)
	}
}

// TestAdminUnknownOpcode: every admin opcode outside the bring-up set
// (Identify, Set Features, Create I/O CQ/SQ) completes with Invalid Opcode,
// including the admin commands no host here issues. Delete I/O SQ/CQ and
// Get Log Page have tests of their own below.
func TestAdminUnknownOpcode(t *testing.T) {
	for _, c := range []struct {
		name   string
		opcode uint8
	}{
		{"get-features", 0x0A},
		{"unassigned", 0x7E},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbench(t, nil)
			tb.enable()
			tb.createIOQueues()
			if cqe := tb.admin(Command{Opcode: c.opcode, CID: 3, CDW10: 1}); cqe.Status != StatusInvalidOpcode {
				t.Fatalf("admin opcode %#x: status %#x, want invalid opcode", c.opcode, cqe.Status)
			}
		})
	}
}

// TestAdminDeleteQueueRejected: Delete I/O SQ/CQ are not modeled. Each
// completes with Invalid Opcode, whatever queue it names, and the I/O pair
// stays in service.
func TestAdminDeleteQueueRejected(t *testing.T) {
	for _, c := range []struct {
		name   string
		opcode uint8
		qid    uint32
	}{
		{"io-sq", 0x00, 1},
		{"io-cq", 0x04, 1},
		{"admin-sq", 0x00, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbench(t, nil)
			tb.enable()
			tb.createIOQueues()
			if cqe := tb.admin(Command{Opcode: c.opcode, CID: 8, CDW10: c.qid}); cqe.Status != StatusInvalidOpcode {
				t.Fatalf("delete queue %d: status %#x, want invalid opcode", c.qid, cqe.Status)
			}
			cmd := Command{Opcode: OpRead, CID: 9, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
			cmd.SetNLB(7)
			if cqe := tb.io(cmd); cqe.Status != StatusSuccess {
				t.Fatalf("I/O after the rejected delete: %#x", cqe.Status)
			}
		})
	}
}

// TestAdminGetLogPageRejected: Get Log Page is not modeled. After a write
// and a failed read, a request for any log page completes with Invalid
// Opcode and leaves the host's log buffer untouched.
func TestAdminGetLogPageRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		lid  uint32
	}{
		{"error", 0x01},
		{"smart", 0x02},
		{"unknown-lid", 0x7F},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbench(t, nil)
			tb.enable()
			tb.createIOQueues()
			w := Command{Opcode: OpWrite, CID: 20, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
			w.SetNLB(7)
			if cqe := tb.io(w); cqe.Status != StatusSuccess {
				t.Fatalf("write: %#x", cqe.Status)
			}
			oob := Command{Opcode: OpRead, CID: 21, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
			oob.SetSLBA(1 << 40)
			oob.SetNLB(7)
			if cqe := tb.io(oob); cqe.Status != StatusLBAOutOfRange {
				t.Fatalf("out-of-range read: %#x", cqe.Status)
			}
			want := bytes.Repeat([]byte{0xEE}, 512)
			logBuf := tb.host.Alloc(PageSize, PageSize)
			tb.host.Mem.Store().WriteBytes(logBuf-tb.host.Mem.Base, want)
			cqe := tb.admin(Command{Opcode: 0x02, CID: 22, PRP1: logBuf, CDW10: c.lid | uint32(512/4-1)<<16})
			if cqe.Status != StatusInvalidOpcode {
				t.Fatalf("get log page %#x: status %#x, want invalid opcode", c.lid, cqe.Status)
			}
			got := make([]byte, 512)
			if tb.host.Mem.Store().ReadBytes(logBuf-tb.host.Mem.Base, got); !bytes.Equal(got, want) {
				t.Error("rejected Get Log Page wrote the host buffer")
			}
		})
	}
}

func TestAdminSetFeaturesUnknownFID(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	if c := tb.admin(Command{Opcode: OpSetFeatures, CID: 4, CDW10: 0x55}); c.Status != StatusInvalidField {
		t.Fatalf("unknown FID status %#x", c.Status)
	}
}

func TestAdminSetFeaturesClampsQueueCount(t *testing.T) {
	tb := newTestbench(t, func(c *Config) { c.MaxIOQueuePairs = 3 })
	tb.enable()
	c := tb.admin(Command{Opcode: OpSetFeatures, CID: 5,
		CDW10: uint32(FeatureNumQueues), CDW11: 63 | 63<<16})
	if c.Status != StatusSuccess {
		t.Fatalf("set features: %#x", c.Status)
	}
	if got := int(c.DW0&0xFFFF) + 1; got != 3 {
		t.Fatalf("granted SQs = %d, want clamp to 3", got)
	}
}

func TestIdentifyBadNSID(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	buf := tb.host.Alloc(PageSize, PageSize)
	c := tb.admin(Command{Opcode: OpIdentify, CID: 6, NSID: 2, PRP1: buf, CDW10: CNSNamespace})
	if c.Status != StatusInvalidNSID {
		t.Fatalf("identify ns 2 status %#x", c.Status)
	}
}
