package snacc

import (
	"bytes"
	"fmt"
	"testing"

	"snacc/internal/sim"
)

// TestRandomizedDataIntegrity drives a functional system with a randomized
// sequence of overlapping writes and reads through the public API and checks
// every read against a byte-exact shadow model of the device. This is the
// end-to-end data-path proof: PRP synthesis, command splitting, staging
// buffers, NAND striping and retirement ordering all have to preserve bytes
// for it to pass. Every buffer variant runs twice: with the paper's
// single-SQ submission path and with the path sharded over four coalescing
// queue pairs, which must be byte-equivalent.
func TestRandomizedDataIntegrity(t *testing.T) {
	for _, v := range []Variant{URAM, OnboardDRAM, HostDRAM} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			runIntegrity(t, Options{Variant: v})
		})
		t.Run(v.String()+"-4q", func(t *testing.T) {
			runIntegrity(t, Options{Variant: v, IOQueues: 4, DoorbellBatch: 8})
		})
	}
}

func runIntegrity(t *testing.T, opts Options) {
	fn := true
	opts.Functional = &fn
	sys := MustNewSystem(opts)
	defer sys.Close()
	const span = 4 << 20 // 4 MiB working window
	shadow := make([]byte, span)
	rng := sim.NewRand(uint64(opts.Variant) + 99)

	// The first failure stops the run and is reported after Execute
	// returns.
	var failure string
	sys.Execute(func(h *Handle) {
		for op := 0; op < 120; op++ {
			// 512-aligned offset and length within the window; sizes
			// cross sector, page and (occasionally) buffer-slot
			// boundaries.
			n := (rng.Int63n(96) + 1) * 512
			addr := uint64(rng.Int63n((span-n)/512)) * 512
			if rng.Float64() < 0.55 {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Int63n(256))
				}
				if err := h.WriteErr(addr, data); err != nil {
					failure = fmt.Sprintf("op %d: write %d@%#x: %v", op, n, addr, err)
					return
				}
				copy(shadow[addr:], data)
			} else {
				got, err := h.ReadErr(addr, n)
				want := shadow[addr : addr+uint64(n)]
				if err != nil || !bytes.Equal(got, want) {
					failure = fmt.Sprintf("op %d: read %d@%#x diverged from shadow (err %v, first diff at %d)",
						op, n, addr, err, firstDiff(got, want))
					return
				}
			}
		}
		// Final full-window readback.
		got, err := h.ReadErr(0, span)
		if err != nil || !bytes.Equal(got, shadow) {
			failure = fmt.Sprintf("final readback diverged at byte %d (err %v)", firstDiff(got, shadow), err)
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}
