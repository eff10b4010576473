package spdk

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

const testBAR = 0x10_0000_0000

// rig builds host + SSD on one fabric.
func rig(functional bool) (*sim.Kernel, *pcie.Host, *nvme.Device) {
	k := sim.NewKernel()
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	host := pcie.NewHost(f, pcie.DefaultHostConfig())
	devCfg := nvme.DefaultConfig("ssd0", testBAR)
	devCfg.Functional = functional
	dev := nvme.New(k, f, devCfg)
	// SSD DMA may touch all of host memory.
	f.IOMMU().Grant("ssd0", pcie.DefaultHostConfig().MemBase, pcie.DefaultHostConfig().MemSize)
	return k, host, dev
}

func attach(t *testing.T, functional bool, qd int) (*sim.Kernel, *pcie.Host, *nvme.Device, chan *Driver) {
	t.Helper()
	k, host, dev := rig(functional)
	out := make(chan *Driver, 1)
	cfg := DefaultDriverConfig()
	cfg.Functional = functional
	if qd > 0 {
		cfg.QueueDepth = qd
	}
	k.Spawn("init", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, cfg)
		if err != nil {
			t.Errorf("Attach: %v", err)
			return
		}
		out <- d
	})
	return k, host, dev, out
}

func TestAttachDiscoversGeometry(t *testing.T) {
	k, _, dev, out := attach(t, false, 0)
	k.Run(0)
	d := <-out
	if d.LBASize() != 512 {
		t.Errorf("LBASize = %d, want 512", d.LBASize())
	}
	wantBlocks := uint64(dev.Config().NamespaceBytes / 512)
	if d.CapacityBlocks() != wantBlocks {
		t.Errorf("CapacityBlocks = %d, want %d", d.CapacityBlocks(), wantBlocks)
	}
	if d.MDTSBytes() != 2*sim.MiB {
		t.Errorf("MDTSBytes = %d, want 2 MiB", d.MDTSBytes())
	}
}

func TestFunctionalWriteReadRoundTrip(t *testing.T) {
	k, _, _, out := attach(t, true, 0)
	var d *Driver
	k.Spawn("io", func(p *sim.Proc) {
		// Wait for attach to finish (init proc runs first at same time).
		for len(out) == 0 {
			p.Sleep(sim.Millisecond)
		}
		d = <-out
		buf := d.AllocBuffer(64 * 1024)
		want := make([]byte, 64*1024)
		for i := range want {
			want[i] = byte(i / 512)
		}
		if err := d.Write(p, 1000, 128, buf, want); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		got := make([]byte, len(want))
		buf2 := d.AllocBuffer(int64(len(got)))
		if err := d.Read(p, 1000, 128, buf2, got); err != nil {
			t.Errorf("Read: %v", err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Error("read data differs from written data")
		}
		if err := d.Flush(p); err != nil {
			t.Errorf("Flush: %v", err)
		}
	})
	k.Run(0)
	if d == nil {
		t.Fatal("driver never attached")
	}
}

func TestLargeTransferUsesPRPList(t *testing.T) {
	// A 1 MiB write must split into one NVMe command with a PRP list and
	// round-trip correctly.
	k, _, dev, out := attach(t, true, 0)
	k.Spawn("io", func(p *sim.Proc) {
		for len(out) == 0 {
			p.Sleep(sim.Millisecond)
		}
		d := <-out
		n := int64(sim.MiB)
		buf := d.AllocBuffer(n)
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i % 253)
		}
		if err := d.Write(p, 0, uint32(n/512), buf, want); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		got := make([]byte, n)
		if err := d.Read(p, 0, uint32(n/512), buf, got); err != nil {
			t.Errorf("Read: %v", err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Error("1 MiB PRP-list round trip corrupted data")
		}
	})
	k.Run(0)
	// One write + one read command plus admin traffic.
	if dev.CommandsExecuted() < 2 {
		t.Fatalf("device executed %d commands", dev.CommandsExecuted())
	}
	if dev.Errors() != 0 {
		t.Fatalf("device reported %d errors", dev.Errors())
	}
}

func TestOutOfRangeReadFails(t *testing.T) {
	k, _, _, out := attach(t, false, 0)
	k.Spawn("io", func(p *sim.Proc) {
		for len(out) == 0 {
			p.Sleep(sim.Millisecond)
		}
		d := <-out
		buf := d.AllocBuffer(4096)
		err := d.Read(p, d.CapacityBlocks(), 8, buf, nil)
		if err == nil {
			t.Error("read past end of namespace succeeded")
		}
		se, ok := err.(*nvme.StatusError)
		if !ok || se.Status != nvme.StatusLBAOutOfRange {
			t.Errorf("error = %v, want LBA out of range", err)
		}
	})
	k.Run(0)
}

func TestQueueDepthBackpressure(t *testing.T) {
	// More async I/Os than queue slots must all complete (submissions queue
	// behind the full SQ).
	k, _, _, out := attach(t, false, 4)
	completed := 0
	k.Spawn("io", func(p *sim.Proc) {
		for len(out) == 0 {
			p.Sleep(sim.Millisecond)
		}
		d := <-out
		buf := d.AllocBuffer(4096)
		for i := 0; i < 32; i++ {
			d.WriteAsync(uint64(i*8), 8, buf, nil, func(err error) {
				if err != nil {
					t.Errorf("WriteAsync: %v", err)
				}
				completed++
			})
		}
	})
	k.Run(0)
	if completed != 32 {
		t.Fatalf("completed = %d, want 32", completed)
	}
}

func TestCPUUtilizationTracked(t *testing.T) {
	k, _, _, out := attach(t, false, 0)
	k.Spawn("io", func(p *sim.Proc) {
		for len(out) == 0 {
			p.Sleep(sim.Millisecond)
		}
		d := <-out
		buf := d.AllocBuffer(sim.MiB)
		for i := 0; i < 64; i++ {
			if err := d.Write(p, uint64(i*2048), 2048, buf, nil); err != nil {
				t.Errorf("Write: %v", err)
			}
		}
		if d.CPU().BusyTime() == 0 {
			t.Error("CPU busy time not accounted")
		}
	})
	k.Run(0)
}

func TestMultipleQueuePairs(t *testing.T) {
	k, host, dev := rig(true)
	cfg := DefaultDriverConfig()
	cfg.QueuePairs = 4
	cfg.Functional = true
	done := false
	k.Spawn("t", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, cfg)
		if err != nil {
			t.Errorf("Attach: %v", err)
			return
		}
		if d.QueuePairs() != 4 {
			t.Errorf("QueuePairs = %d", d.QueuePairs())
		}
		// Writes round-robin across pairs; all must land correctly.
		buf := d.AllocBuffer(4096)
		for i := 0; i < 16; i++ {
			data := bytes.Repeat([]byte{byte(i)}, 4096)
			if err := d.Write(p, uint64(i*8), 8, buf, data); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		for i := 0; i < 16; i++ {
			got := make([]byte, 4096)
			if err := d.Read(p, uint64(i*8), 8, buf, got); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
			if got[0] != byte(i) || got[4095] != byte(i) {
				t.Errorf("slot %d corrupted", i)
			}
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("multi-QP test incomplete")
	}
	if dev.Errors() != 0 {
		t.Fatalf("device errors: %d", dev.Errors())
	}
}

func TestReadSMARTThroughDriver(t *testing.T) {
	k, host, _ := rig(false)
	k.Spawn("t", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, DefaultDriverConfig())
		if err != nil {
			t.Errorf("Attach: %v", err)
			return
		}
		buf := d.AllocBuffer(sim.MiB)
		if err := d.Write(p, 0, 2048, buf, nil); err != nil {
			t.Errorf("write: %v", err)
		}
		sm, err := d.ReadSMART(p)
		if err != nil {
			t.Errorf("ReadSMART: %v", err)
			return
		}
		if sm.HostWrites != 1 {
			t.Errorf("HostWrites = %d, want 1", sm.HostWrites)
		}
		if sm.DataUnitsWritten == 0 {
			t.Error("DataUnitsWritten = 0")
		}
		if sm.TemperatureK < 280 || sm.TemperatureK > 360 {
			t.Errorf("temperature %d K implausible", sm.TemperatureK)
		}
	})
	k.Run(0)
}

func TestWriteZeroesAndTrim(t *testing.T) {
	k, host, dev := rig(true)
	cfg := DefaultDriverConfig()
	cfg.Functional = true
	k.Spawn("t", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, cfg)
		if err != nil {
			t.Errorf("Attach: %v", err)
			return
		}
		buf := d.AllocBuffer(4096)
		data := bytes.Repeat([]byte{0xCD}, 4096)
		if err := d.Write(p, 0, 8, buf, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := d.WriteZeroes(p, 0, 4); err != nil {
			t.Errorf("write zeroes: %v", err)
		}
		got := make([]byte, 4096)
		if err := d.Read(p, 0, 8, buf, got); err != nil {
			t.Errorf("read: %v", err)
		}
		if got[0] != 0 || got[2047] != 0 {
			t.Error("zeroed range not zero")
		}
		if got[2048] != 0xCD {
			t.Error("data beyond zeroed range clobbered")
		}
		if err := d.Trim(p, []nvme.DSMRange{{SLBA: 4, NLB: 4}}); err != nil {
			t.Errorf("trim: %v", err)
		}
		if err := d.Read(p, 0, 8, buf, got); err != nil {
			t.Errorf("read: %v", err)
		}
		if got[2048] != 0 {
			t.Error("trimmed range still holds data")
		}
	})
	k.Run(0)
	if dev.Errors() != 0 {
		t.Fatalf("device errors: %d", dev.Errors())
	}
}

// TestTrimLargeRangeStaysSparse pins that deallocate drops media pages
// instead of writing zeros over the range: a 256 MiB trim allocates almost
// nothing, never grows the media store, reads back as zeros, and leaves the
// bytes just outside the range intact. The range starts and ends one LBA
// into a 4 KiB page, so both boundary pages are cleared only in part.
func TestTrimLargeRangeStaysSparse(t *testing.T) {
	const (
		slba = 2049                // one LBA into the page at LBA 2048
		nlb  = 256 << 20 / 512     // 256 MiB
		end  = slba + nlb          // first LBA past the range, one into its page
		mid  = slba + nlb/2 + 1000 // a written page well inside the range
	)
	k, host, dev := rig(true)
	cfg := DefaultDriverConfig()
	cfg.Functional = true
	store := dev.NAND().Store()
	var alloc uint64
	var pagesBefore, pagesAfter int
	var failure string
	k.Spawn("t", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, cfg)
		if err != nil {
			failure = "attach: " + err.Error()
			return
		}
		buf := d.AllocBuffer(4096)
		page := bytes.Repeat([]byte{0xCD}, 4096)
		for _, lba := range []uint64{slba - 1, mid, end - 1} {
			if err := d.Write(p, lba, 8, buf, page); err != nil {
				failure = "write: " + err.Error()
				return
			}
		}
		pagesBefore = store.Pages()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err = d.Trim(p, []nvme.DSMRange{{SLBA: slba, NLB: nlb}})
		runtime.ReadMemStats(&m1)
		alloc = m1.TotalAlloc - m0.TotalAlloc
		pagesAfter = store.Pages()
		if err != nil {
			failure = "trim: " + err.Error()
			return
		}
		got := make([]byte, 4096)
		check := func(lba uint64, want []byte) {
			if failure == "" && (d.Read(p, lba, 8, buf, got) != nil || !bytes.Equal(got, want)) {
				failure = fmt.Sprintf("read-back of LBA %d after the trim is wrong", lba)
			}
		}
		// Each boundary page keeps its one LBA outside the range.
		check(slba-1, append(bytes.Repeat([]byte{0xCD}, 512), make([]byte, 3584)...))
		check(end-1, append(make([]byte, 512), bytes.Repeat([]byte{0xCD}, 3584)...))
		check(mid, make([]byte, 4096))
	})
	k.Run(0)
	if failure != "" {
		t.Fatal(failure)
	}
	if alloc >= 1<<20 {
		t.Errorf("a 256 MiB trim allocated %d bytes, want < 1 MiB", alloc)
	}
	if pagesAfter > pagesBefore {
		t.Errorf("trim grew the media store from %d to %d pages", pagesBefore, pagesAfter)
	}
	if dev.Errors() != 0 {
		t.Fatalf("device errors: %d", dev.Errors())
	}
}

func TestDetachAndReattach(t *testing.T) {
	k, host, dev := rig(false)
	k.Spawn("t", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, DefaultDriverConfig())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		buf := d.AllocBuffer(4096)
		if err := d.Write(p, 0, 8, buf, nil); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := d.Detach(p); err != nil {
			t.Errorf("detach: %v", err)
			return
		}
		// A fresh attach must bring the controller back.
		d2, err := Attach(p, host, testBAR, DefaultDriverConfig())
		if err != nil {
			t.Errorf("re-attach: %v", err)
			return
		}
		if err := d2.Write(p, 8, 8, buf, nil); err != nil {
			t.Errorf("write after re-attach: %v", err)
		}
	})
	k.Run(0)
	if dev.Errors() != 0 {
		t.Fatalf("device errors: %d", dev.Errors())
	}
}
