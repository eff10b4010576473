package snacc

import (
	"bytes"
	"fmt"
	"testing"

	"snacc/internal/sim"
)

// TestClusterRandomizedDataIntegrity is the scale-out crash variant of
// TestRandomizedDataIntegrity: a randomized overlapping read/write workload
// runs against a replicated 4-node cluster while one node's controller is
// surprise-removed mid-run. For R in {2, 3} every byte must survive — reads
// fail over, writes re-home to survivors, and background re-replication
// restores full replication before the run drains — and the entire
// timeline must be byte-identical at any kernel worker count.
func TestClusterRandomizedDataIntegrity(t *testing.T) {
	for _, r := range []int{2, 3} {
		r := r
		t.Run(fmt.Sprintf("R%d", r), func(t *testing.T) {
			base := runClusterIntegrity(t, r, 1)
			for _, w := range []int{2, 4} {
				if got := runClusterIntegrity(t, r, w); got != base {
					t.Errorf("workers=%d digest %x != workers=1 digest %x", w, got, base)
				}
			}
		})
	}
}

// runClusterIntegrity runs one kill-a-node workload and returns a digest
// over the final readback bytes, the cluster clock, and the recovery
// counters — equal digests mean byte- and timeline-identical runs.
func runClusterIntegrity(t *testing.T, replication, workers int) uint64 {
	quorum := replication - 1
	if quorum < 1 {
		quorum = 1
	}
	sys := MustNewSystem(Options{
		Seed:          9,
		KernelWorkers: workers,
		Cluster: &ClusterOptions{
			Nodes:       4,
			Replication: replication,
			Quorum:      quorum,
			NodeFaults:  map[int]*FaultOptions{2: {RemoveAtCommand: 6}},
		},
	})
	defer sys.Close()

	const span = 2 << 20 // 2 MiB working window (8 default chunks)
	shadow := make([]byte, span)
	rng := sim.NewRand(uint64(replication)*31 + 5)
	const prime = 1099511628211
	digest := uint64(14695981039346656037)

	// The first failure stops the run and is reported after Execute
	// returns.
	var failure string
	sys.Execute(func(h *Handle) {
		for op := 0; op < 70; op++ {
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
				if err != nil {
					failure = fmt.Sprintf("op %d: read %d@%#x: %v", op, n, addr, err)
					return
				}
				if want := shadow[addr : addr+uint64(n)]; !bytes.Equal(got, want) {
					failure = fmt.Sprintf("op %d: read %d@%#x diverged from shadow (first diff at %d)",
						op, n, addr, firstDiff(got, want))
					return
				}
			}
		}
		got, err := h.ReadErr(0, span)
		if err != nil {
			failure = fmt.Sprintf("final readback: %v", err)
			return
		}
		if !bytes.Equal(got, shadow) {
			failure = fmt.Sprintf("final readback diverged at byte %d", firstDiff(got, shadow))
			return
		}
		for _, b := range got {
			digest = (digest ^ uint64(b)) * prime
		}
		digest = (digest ^ uint64(h.Now())) * prime
	})
	if failure != "" {
		t.Fatal(failure)
	}

	st := sys.Stats()
	if st.NodeDeaths != 1 {
		t.Fatalf("R=%d workers=%d: NodeDeaths = %d, want 1", replication, workers, st.NodeDeaths)
	}
	if len(st.DeadNodes) != 1 || st.DeadNodes[0] != 2 {
		t.Fatalf("R=%d workers=%d: DeadNodes = %v, want [2]", replication, workers, st.DeadNodes)
	}
	if st.ReReplicatedBytes == 0 {
		t.Fatalf("R=%d workers=%d: repair never ran: %+v", replication, workers, st)
	}
	if st.UnderReplicatedChunks != 0 {
		t.Fatalf("R=%d workers=%d: cluster still under-replicated after drain (%d chunks)",
			replication, workers, st.UnderReplicatedChunks)
	}
	digest = (digest ^ uint64(st.NodeDeaths)) * prime
	digest = (digest ^ uint64(st.Failovers)) * prime
	digest = (digest ^ uint64(st.ReReplicatedBytes)) * prime
	digest = (digest ^ uint64(st.DegradedWindowNs)) * prime
	digest = (digest ^ uint64(st.SimTime)) * prime
	return digest
}
