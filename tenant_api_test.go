package snacc

import (
	"bytes"
	"strings"
	"testing"

	"snacc/internal/sim"
)

// twoTenantOpts builds a system with two equal-weight tenants on adjacent
// 64 MiB windows.
func twoTenantOpts() Options {
	return Options{Tenants: []TenantConfig{
		{Name: "a", Weight: 1, LBAStart: 0, LBABytes: 64 * sim.MiB},
		{Name: "b", Weight: 2, LBAStart: uint64(64 * sim.MiB), LBABytes: 64 * sim.MiB},
	}}
}

func TestTenantFacadeRoundTrip(t *testing.T) {
	sys := MustNewSystem(twoTenantOpts())
	block := func(tag byte) []byte {
		b := make([]byte, 8192)
		for i := range b {
			b[i] = tag ^ byte(i%251)
		}
		return b
	}
	a, b := block(0xA5), block(0x5A)
	sys.Execute(func(h *Handle) {
		// Both tenants write to the SAME tenant-relative address; the hub's
		// window translation must keep them on disjoint device ranges.
		if err := h.TenantWrite(0, 4096, a); err != nil {
			t.Errorf("tenant 0 write: %v", err)
		}
		if err := h.TenantWrite(1, 4096, b); err != nil {
			t.Errorf("tenant 1 write: %v", err)
		}
		got, err := h.TenantRead(0, 4096, int64(len(a)))
		if err != nil || !bytes.Equal(got, a) {
			t.Errorf("tenant 0 read back wrong data (err=%v)", err)
		}
		got, err = h.TenantRead(1, 4096, int64(len(b)))
		if err != nil || !bytes.Equal(got, b) {
			t.Errorf("tenant 1 read back wrong data (err=%v)", err)
		}
	})
	st := sys.Stats()
	if len(st.Tenants) != 2 {
		t.Fatalf("Stats.Tenants has %d entries, want 2", len(st.Tenants))
	}
	if st.Tenants[0].Name != "a" || st.Tenants[1].Name != "b" {
		t.Errorf("tenant names = %q, %q", st.Tenants[0].Name, st.Tenants[1].Name)
	}
	var wr, rd int64
	for _, ts := range st.Tenants {
		wr += ts.BytesWritten
		rd += ts.BytesRead
	}
	if wr != st.BytesFromPE || rd != st.BytesToPE {
		t.Errorf("tenant byte sums (w=%d r=%d) != global (w=%d r=%d)",
			wr, rd, st.BytesFromPE, st.BytesToPE)
	}
	lat := sys.TenantReadLatency(0)
	if lat.Count() == 0 {
		t.Error("tenant 0 read-latency histogram empty")
	}
}

func TestTenantFacadeWindowRejection(t *testing.T) {
	sys := MustNewSystem(twoTenantOpts())
	sys.Execute(func(h *Handle) {
		if err := h.TenantWriteTimed(0, uint64(64*sim.MiB), 4096); err == nil {
			t.Error("out-of-window write not rejected")
		}
		if _, err := h.TenantRead(1, uint64(60*sim.MiB), 8*sim.MiB); err == nil {
			t.Error("window-overrunning read not rejected")
		}
	})
	st := sys.Stats()
	if st.Tenants[0].Rejected != 1 || st.Tenants[1].Rejected != 1 {
		t.Errorf("rejected = %d, %d — want 1 each",
			st.Tenants[0].Rejected, st.Tenants[1].Rejected)
	}
	if st.CommandsSubmitted != 0 {
		t.Errorf("rejected commands reached the device: %d submitted", st.CommandsSubmitted)
	}
}

func TestTenantFacadeGuards(t *testing.T) {
	virt := MustNewSystem(twoTenantOpts())
	virt.Execute(func(h *Handle) {
		if _, err := h.ReadErr(0, 512); err == nil || !strings.Contains(err.Error(), "virtualized") {
			t.Errorf("raw ReadErr on virtualized system: err = %v, want virtualized", err)
		}
		if err := h.WriteErr(0, make([]byte, 512)); err == nil || !strings.Contains(err.Error(), "virtualized") {
			t.Errorf("raw WriteErr on virtualized system: err = %v, want virtualized", err)
		}
	})
	if _, err := virt.RunWorkload(DefaultWorkload()); err == nil {
		t.Error("RunWorkload on a virtualized system bypassed the tenant windows")
	}
	if got := MustNewSystem(Options{}).TenantStats(); got != nil {
		t.Errorf("TenantStats without tenants = %v, want nil", got)
	}
}

// TestTenantFacadeIndexErrors: the tenant entry points return errors, not
// panics, when the system has no tenants or the index is out of range, and
// the tenants keep working afterwards.
func TestTenantFacadeIndexErrors(t *testing.T) {
	calls := map[string]func(h *Handle, i int) error{
		"TenantRead": func(h *Handle, i int) error {
			_, err := h.TenantRead(i, 0, 512)
			return err
		},
		"TenantWrite":      func(h *Handle, i int) error { return h.TenantWrite(i, 0, make([]byte, 512)) },
		"TenantWriteTimed": func(h *Handle, i int) error { return h.TenantWriteTimed(i, 0, 512) },
	}
	for _, tc := range []struct {
		name  string
		opts  Options
		index int
		want  string
	}{
		{"no tenants", Options{}, 0, "no tenants"},
		{"negative index", twoTenantOpts(), -1, "out of range"},
		{"index past the end", twoTenantOpts(), 2, "out of range"},
	} {
		sys := MustNewSystem(tc.opts)
		sys.Execute(func(h *Handle) {
			for name, call := range calls {
				if err := call(h, tc.index); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: %s(%d): err = %v, want %q", tc.name, name, tc.index, err, tc.want)
				}
			}
			if sys.hub != nil {
				if err := h.TenantWrite(1, 0, make([]byte, 512)); err != nil {
					t.Errorf("%s: valid tenant write after the errors: %v", tc.name, err)
				}
			}
		})
	}
}

func TestTenantFacadeBadConfig(t *testing.T) {
	_, err := NewSystem(Options{Tenants: []TenantConfig{
		{Name: "a", LBAStart: 0, LBABytes: 2 * sim.MiB},
		{Name: "b", LBAStart: uint64(sim.MiB), LBABytes: 2 * sim.MiB}, // overlaps a
	}})
	if err == nil {
		t.Fatal("overlapping tenant windows accepted")
	}
}
