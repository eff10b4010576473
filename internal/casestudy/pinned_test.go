package casestudy

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"snacc/internal/streamer"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden")

// TestResultsPinned pins every exact number the case-study runners produce —
// simulated elapsed time, PCIe payload per port, pause/drop/error counts,
// host CPU time and the SNAcc image-latency summary — across every runner,
// topology and payload mode, so a change to how the pipeline is assembled
// shows up as a line diff. Regenerate with -update only when the model is
// meant to change.
func TestResultsPinned(t *testing.T) {
	timing := smallConfig(40)
	mtu1500 := timing
	mtu1500.EthernetMTU = 1500
	viaSwitch := timing
	viaSwitch.UseSwitch = true
	functional := smallConfig(4)
	functional.Functional = true
	functional.Source.Width = 256
	functional.Source.Height = 128
	functional.Source.Channels = 3

	runs := []struct {
		label   string
		latency bool // the Figure 6 SNAcc rows render image latency
		run     func() Result
	}{
		{"uram", true, func() Result { return RunSNAcc(streamer.URAM, timing) }},
		{"onboard", true, func() Result { return RunSNAcc(streamer.OnboardDRAM, timing) }},
		{"host", true, func() Result { return RunSNAcc(streamer.HostDRAM, timing) }},
		{"spdk", false, func() Result { return RunSPDK(timing) }},
		{"gpu", false, func() Result { return RunGPU(timing) }},
		{"striped-1", false, func() Result { return RunSNAccStriped(1, timing) }},
		{"striped-2", false, func() Result { return RunSNAccStriped(2, timing) }},
		{"striped-3", false, func() Result { return RunSNAccStriped(3, timing) }},
		{"striped-3-mtu1500", false, func() Result { return RunSNAccStriped(3, mtu1500) }},
		{"gpu-mtu1500", false, func() Result { return RunGPU(mtu1500) }},
		{"host-switch", true, func() Result { return RunSNAcc(streamer.HostDRAM, viaSwitch) }},
		{"gpu-switch", false, func() Result { return RunGPU(viaSwitch) }},
		{"uram-faults", true, func() Result { r, _ := runSNAccWithFaults(smallConfig(16), streamer.URAM, 5); return r }},
		{"uram-functional", true, func() Result { return RunSNAcc(streamer.URAM, functional) }},
		{"striped-2-functional", false, func() Result { return RunSNAccStriped(2, functional) }},
		{"spdk-functional", false, func() Result { return RunSPDK(functional) }},
		{"gpu-functional", false, func() Result { return RunGPU(functional) }},
	}
	var b strings.Builder
	for _, c := range runs {
		r := c.run()
		ports := make([]string, 0, len(r.PCIe))
		for name := range r.PCIe {
			ports = append(ports, name)
		}
		sort.Strings(ports)
		for i, name := range ports {
			ports[i] = fmt.Sprintf("%s=%d", name, r.PCIe[name])
		}
		fmt.Fprintf(&b, "%s variant=%s images=%d bytes=%d elapsed=%d pcie=[%s] total=%d pauses=%d drops=%d errors=%d cpu=%d",
			c.label, r.Variant, r.Images, r.Bytes, int64(r.Elapsed), strings.Join(ports, " "), r.PCIeTotal,
			r.EthernetPauses, r.FramesDropped, r.Errors, int64(r.HostCPUBusy))
		if c.latency {
			h := r.ImageLatency
			fmt.Fprintf(&b, " lat=%d/%d/%d", h.Count(), int64(h.Mean()), int64(h.Percentile(99)))
		}
		b.WriteByte('\n')
	}
	got := b.String()

	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/casestudy -run TestResultsPinned -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("case-study results diverged from %s\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}
