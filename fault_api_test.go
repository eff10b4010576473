package snacc

import (
	"bytes"
	"testing"
)

// TestFaultAPIRecoversInjectedErrors drives the public fault surface end to
// end: a system built with Options.Faults must retry injected read errors
// transparently, deliver intact data, and expose the recovery accounting in
// Stats.
func TestFaultAPIRecoversInjectedErrors(t *testing.T) {
	sys := MustNewSystem(Options{Variant: URAM, Faults: &FaultOptions{
		Seed:          7,
		ReadErrorRate: 0.2,
	}})
	want := make([]byte, 512*1024)
	for i := range want {
		want[i] = byte(i % 253)
	}
	sys.Execute(func(h *Handle) {
		check(t, h.WriteErr(0, want))
		// Read repeatedly so the 20% rate is certain to fire.
		for i := 0; i < 8; i++ {
			got, err := h.ReadErr(0, int64(len(want)))
			if err != nil {
				t.Fatalf("read %d failed terminally: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read %d returned corrupted data", i)
			}
		}
	})
	st := sys.Stats()
	if st.FaultsInjected == 0 {
		t.Fatal("20% read-error rate injected nothing")
	}
	if st.CommandErrors != st.FaultsInjected {
		t.Errorf("error CQEs = %d, injected = %d; errors were swallowed",
			st.CommandErrors, st.FaultsInjected)
	}
	if st.CommandRetries+st.CommandAborts != st.CommandErrors {
		t.Errorf("retries+aborts = %d+%d, want every error (%d) dispositioned",
			st.CommandRetries, st.CommandAborts, st.CommandErrors)
	}
	if st.CommandAborts != 0 {
		t.Errorf("intact data delivered yet %d aborts recorded", st.CommandAborts)
	}
}

// TestFaultAPIZeroRetriesAborts pins MaxRetries: -1 (abort on first failure)
// and the error surfaced by ReadErr.
func TestFaultAPIZeroRetriesAborts(t *testing.T) {
	sys := MustNewSystem(Options{Variant: URAM, Faults: &FaultOptions{
		Seed:          7,
		ReadErrorRate: 1, // every read command fails
		MaxRetries:    -1,
	}})
	sys.Execute(func(h *Handle) {
		block := make([]byte, 4096)
		check(t, h.WriteErr(0, block))
		got, err := h.ReadErr(0, 4096)
		if err == nil {
			t.Fatal("certain read failure with no retries returned success")
		}
		if len(got) != 0 {
			t.Fatalf("aborted read delivered %d bytes, want none", len(got))
		}
	})
	st := sys.Stats()
	if st.CommandAborts == 0 || st.CommandRetries != 0 {
		t.Errorf("aborts=%d retries=%d, want 1+/0", st.CommandAborts, st.CommandRetries)
	}
}

// TestFaultAPIDisabledByDefault: a plain system must not pay for recovery —
// no injector, no retry accounting, stats identically zero.
func TestFaultAPIDisabledByDefault(t *testing.T) {
	sys := MustNewSystem(Options{Variant: URAM})
	sys.Execute(func(h *Handle) {
		check(t, h.WriteTimed(0, 1<<20))
		check(t, h.ReadTimed(0, 1<<20))
	})
	st := sys.Stats()
	if st.FaultsInjected != 0 || st.CommandRetries != 0 || st.CommandTimeouts != 0 ||
		st.CommandAborts != 0 || st.ProtocolErrors != 0 || st.CommandErrors != 0 {
		t.Errorf("fault-free system shows recovery activity: %+v", st)
	}
}
