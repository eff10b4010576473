package snacc

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// roundTripBytes is the transfer size of the copy-once payload checks: four
// 1 MiB Streamer commands, a full URAM buffer.
const roundTripBytes = 4 << 20

func roundTripPayload() []byte {
	data := make([]byte, roundTripBytes)
	for i := range data {
		data[i] = byte(i*7 + i>>12)
	}
	return data
}

// roundTrip writes data at 0, reads it back and reports any mismatch.
func roundTrip(h *Handle, data []byte) error {
	if err := h.WriteErr(0, data); err != nil {
		return err
	}
	got, err := h.ReadErr(0, int64(len(data)))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("read-back differs at byte %d", firstDiff(got, data))
	}
	return nil
}

// TestFunctionalRoundTripAllocBudget pins the copy-once payload path: a
// 4 MiB WriteErr + ReadErr round trip on a functional URAM system allocates
// little beyond the 4 MiB buffer the read returns (no regrown read buffer,
// no per-command NVMe staging allocation), and a ReadTimed allocates no
// payload at all.
func TestFunctionalRoundTripAllocBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates and its sync.Pool drops buffers at random")
	}
	const rounds = 20
	sys := MustNewSystem(Options{Variant: URAM})
	data := roundTripPayload()
	var perTrip, timed uint64
	var failure error
	sys.Execute(func(h *Handle) {
		// Warm-up: materializes the stores and fills the buffer pools.
		if failure = roundTrip(h, data); failure != nil {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds && failure == nil; i++ {
			failure = roundTrip(h, data)
		}
		runtime.ReadMemStats(&m1)
		perTrip = (m1.TotalAlloc - m0.TotalAlloc) / rounds

		runtime.ReadMemStats(&m0)
		h.ReadTimed(0, roundTripBytes)
		runtime.ReadMemStats(&m1)
		timed = m1.TotalAlloc - m0.TotalAlloc
	})
	if failure != nil {
		t.Fatal(failure)
	}
	if perTrip > 5<<20 {
		t.Errorf("a 4 MiB round trip allocated %.2f MiB, want <= 5 MiB", float64(perTrip)/(1<<20))
	}
	if timed >= roundTripBytes/4 {
		t.Errorf("a 4 MiB ReadTimed allocated %.2f MiB, want no payload (< 1 MiB)", float64(timed)/(1<<20))
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// BenchmarkFunctionalRoundTrip4M measures one 4 MiB WriteErr + ReadErr
// round trip on a functional URAM system; run it with -benchmem to see the
// per-trip allocation the budget test pins.
func BenchmarkFunctionalRoundTrip4M(b *testing.B) {
	sys := MustNewSystem(Options{Variant: URAM})
	data := roundTripPayload()
	var failure error
	sys.Execute(func(h *Handle) { failure = roundTrip(h, data) })
	if failure != nil {
		b.Fatal(failure)
	}
	b.SetBytes(2 * roundTripBytes)
	b.ReportAllocs()
	b.ResetTimer()
	sys.Execute(func(h *Handle) {
		for i := 0; i < b.N && failure == nil; i++ {
			failure = roundTrip(h, data)
		}
	})
	b.StopTimer()
	if failure != nil {
		b.Fatal(failure)
	}
}
