package snacc

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"snacc/internal/sim"
)

// check fails t on a transfer error: every Handle transfer returns its
// failures as an error.
func check(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

// mustRead is Handle.ReadErr failing t on an error.
func mustRead(t testing.TB, h *Handle, addr uint64, n int64) []byte {
	t.Helper()
	got, err := h.ReadErr(addr, n)
	check(t, err)
	return got
}

func TestSystemWriteReadRoundTrip(t *testing.T) {
	for _, v := range []Variant{URAM, OnboardDRAM, HostDRAM} {
		t.Run(v.String(), func(t *testing.T) {
			sys := MustNewSystem(Options{Variant: v})
			want := make([]byte, 256*1024)
			for i := range want {
				want[i] = byte(i % 251)
			}
			sys.Execute(func(h *Handle) {
				check(t, h.WriteErr(0, want))
				got := mustRead(t, h, 0, int64(len(want)))
				if !bytes.Equal(got, want) {
					t.Error("round trip corrupted data")
				}
			})
			st := sys.Stats()
			if st.CommandErrors != 0 {
				t.Errorf("command errors: %d", st.CommandErrors)
			}
			if st.CommandsSubmitted != st.CommandsRetired {
				t.Errorf("submitted %d != retired %d", st.CommandsSubmitted, st.CommandsRetired)
			}
		})
	}
}

func TestSystemMultipleExecutes(t *testing.T) {
	// Simulated time and SSD contents must persist across Execute calls.
	sys := MustNewSystem(Options{Variant: URAM})
	var t1, t2 int64
	sys.Execute(func(h *Handle) {
		block := make([]byte, 512)
		copy(block, "persist me across executes")
		check(t, h.WriteErr(0, block))
		t1 = h.Now()
	})
	sys.Execute(func(h *Handle) {
		t2 = h.Now()
		got := mustRead(t, h, 0, 512)
		if string(got[:10]) != "persist me" {
			t.Error("data did not survive across Execute calls")
		}
	})
	if t2 < t1 {
		t.Errorf("time went backwards: %d then %d", t1, t2)
	}
}

func TestSystemTimedOpsAdvanceTime(t *testing.T) {
	f := false
	sys := MustNewSystem(Options{Variant: HostDRAM, Functional: &f})
	sys.Execute(func(h *Handle) {
		start := h.Now()
		check(t, h.WriteTimed(0, 8<<20))
		if h.Now() <= start {
			t.Error("WriteTimed consumed no simulated time")
		}
		mid := h.Now()
		check(t, h.ReadTimed(0, 8<<20))
		if h.Now() <= mid {
			t.Error("ReadTimed consumed no simulated time")
		}
	})
}

func TestSystemDeterminism(t *testing.T) {
	run := func() (int64, Stats) {
		f := false
		sys := MustNewSystem(Options{Variant: OnboardDRAM, Functional: &f, Seed: 99})
		defer sys.Close()
		var done int64
		sys.Execute(func(h *Handle) {
			check(t, h.WriteTimed(0, 32<<20))
			check(t, h.ReadTimed(0, 32<<20))
			done = h.Now()
		})
		return done, sys.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 {
		t.Errorf("same seed diverged in time: %d vs %d", d1, d2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("same seed diverged in stats: %+v vs %+v", s1, s2)
	}
}

func TestSystemKernelWorkersIdentical(t *testing.T) {
	// KernelWorkers has no effect: every accepted value reproduces the
	// default timeline byte for byte — same end time, same stats.
	run := func(workers int) (int64, Stats) {
		f := false
		sys := MustNewSystem(Options{Variant: OnboardDRAM, Functional: &f,
			Seed: 99, KernelWorkers: workers})
		defer sys.Close()
		var done int64
		sys.Execute(func(h *Handle) {
			check(t, h.WriteTimed(0, 16<<20))
			check(t, h.ReadTimed(0, 16<<20))
			done = h.Now()
		})
		return done, sys.Stats()
	}
	d1, s1 := run(1)
	for _, w := range []int{2, 4} {
		dw, sw := run(w)
		if dw != d1 {
			t.Errorf("KernelWorkers=%d end time %d differs from serial %d", w, dw, d1)
		}
		if !reflect.DeepEqual(sw, s1) {
			t.Errorf("KernelWorkers=%d stats diverged:\n%+v\nvs serial\n%+v", w, sw, s1)
		}
	}
	if _, err := NewSystem(Options{KernelWorkers: -1}); err == nil {
		t.Error("negative KernelWorkers accepted")
	}
}

func TestSystemOutOfOrderOption(t *testing.T) {
	sys := MustNewSystem(Options{Variant: OnboardDRAM, OutOfOrder: true})
	want := bytes.Repeat([]byte{0xA5}, 128*1024)
	sys.Execute(func(h *Handle) {
		check(t, h.WriteErr(4096, want))
		if !bytes.Equal(mustRead(t, h, 4096, int64(len(want))), want) {
			t.Error("OOO system corrupted data")
		}
	})
}

// Property: arbitrary (aligned) write/read sequences round-trip through the
// full protocol stack.
func TestSystemRoundTripProperty(t *testing.T) {
	sys := MustNewSystem(Options{Variant: URAM})
	f := func(addrRaw uint16, lenRaw uint8, fill byte) bool {
		addr := uint64(addrRaw) * 512
		n := (int64(lenRaw)%64 + 1) * 512
		data := bytes.Repeat([]byte{fill}, int(n))
		ok := false
		sys.Execute(func(h *Handle) {
			check(t, h.WriteErr(addr, data))
			ok = bytes.Equal(mustRead(t, h, addr, n), data)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestResourcesMatchTable1(t *testing.T) {
	sys := MustNewSystem(Options{Variant: URAM})
	r := sys.Resources()
	if r.LUT != 7260 || r.FF != 8388 {
		t.Errorf("URAM resources = %v, want Table 1 values", r)
	}
}

func TestStatsPCIeAccounting(t *testing.T) {
	f := false
	sys := MustNewSystem(Options{Variant: URAM, Functional: &f})
	sys.Execute(func(h *Handle) { check(t, h.WriteTimed(0, 16*sim.MiB)) })
	st := sys.Stats()
	// A URAM-variant write moves the payload over PCIe exactly once (SSD
	// P2P fetch); host memory only sees queue/identify traffic.
	if st.PCIeSSDRx < 16*sim.MiB {
		t.Errorf("SSD received %d bytes, want >= 16 MiB", st.PCIeSSDRx)
	}
	if st.PCIeHostRx > sim.MiB {
		t.Errorf("host received %d bytes; URAM path should bypass host memory", st.PCIeHostRx)
	}
}
