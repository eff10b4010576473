package snacc

import (
	"bytes"
	"testing"
)

// TestDrainEndsAtLastOp is the drain audit for armed recovery ladders: a
// faults-armed card and a 3-node R=2 cluster (whose nodes all arm the
// ladder) run 64 writes of 64 KiB and read them back, and the drained
// kernel's clock, Stats.SimTime, must end within 1 ms of the last op. A
// completion watchdog (50 ms) or coordinator request timeout (10 ms) left
// behind by retired work would carry it one deadline further.
func TestDrainEndsAtLastOp(t *testing.T) {
	const (
		ops    = 64
		opSize = 64 << 10
		slack  = 1_000_000 // 1 ms
	)
	cases := []struct {
		name string
		opts Options
	}{
		{"card", Options{Variant: URAM, Faults: &FaultOptions{}}},
		{"cluster", Options{Variant: URAM, Cluster: &ClusterOptions{Nodes: 3, Replication: 2, Quorum: 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := MustNewSystem(c.opts)
			defer sys.Close()
			data := make([]byte, ops*opSize)
			for i := range data {
				data[i] = byte(i*7 + i>>16)
			}
			var last int64
			sys.Execute(func(h *Handle) {
				for i := 0; i < ops; i++ {
					check(t, h.WriteErr(uint64(i*opSize), data[i*opSize:(i+1)*opSize]))
				}
				for i := 0; i < ops; i++ {
					got, err := h.ReadErr(uint64(i*opSize), opSize)
					check(t, err)
					if !bytes.Equal(got, data[i*opSize:(i+1)*opSize]) {
						t.Fatalf("read %d returned other bytes than written", i)
					}
				}
				last = h.Now()
			})
			if end := sys.Stats().SimTime; end < last || end-last > slack {
				t.Fatalf("SimTime %d ns ends %d ns after the last op at %d ns, want at most %d",
					end, end-last, last, slack)
			}
		})
	}
}
