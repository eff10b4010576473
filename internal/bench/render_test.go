package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"snacc/internal/sim"
	"snacc/internal/streamer"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/<name>.golden; -update rewrites.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/bench -run TestRenderGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("rendered output diverged from %s\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// goldenScale is the scale of every golden: TestParallelDeterminism's.
func goldenScale() Scale {
	s := DefaultScale()
	s.Size, s.Images, s.Samples = 16*sim.MiB, 16, 20
	return s
}

// goldens names the golden file of each block a registry entry prints
// when named, in print order: its tables, then its detail text and the
// detail's tables.
var goldens = map[string][]string{
	"fig4a": {"fig4a"}, "fig4b": {"fig4b"}, "fig4c": {"fig4c"}, "table1": {"table1"},
	"fig6": {"fig6", "fig7"},
	"qd":   {"ablation_qd"}, "ooo": {"ablation_ooo"}, "multissd": {"ablation_multissd"},
	"gen5": {"ablation_gen5"}, "hbm": {"ablation_hbm"}, "stripedcase": {"fig6_striped"},
	"dram": {"ablation_dram"}, "qp": {"ablation_qp"}, "mtu": {"ablation_mtu"},
	"faults":   {"faultsweep"},
	"crash":    {"crashsweep", "crashtimeline"},
	"queues":   {"queuesweep"},
	"tenants":  {"tenantsweep"},
	"serve":    {"servesweep"},
	"cluster":  {"clustersweep", "clustertimeline", "clusterrecovery"},
	"latency":  {"latency"},
	"timeline": {"timeline"},
	"sweep":    {"sweep"},
	"degraded": {"striped_degraded"},
}

// TestRenderGolden pins every registry entry's real output at the golden
// scale, one golden per printed table or detail block, so a change to a
// number or a format shows up as a readable text diff. The transfer-size
// sweep ignores the scale; its golden runs it at 32 and 64 MiB. Regenerate
// with -update after a deliberate model change (make regen).
func TestRenderGolden(t *testing.T) {
	s := goldenScale()
	for _, e := range Experiments {
		names, ok := goldens[e.Name]
		if !ok {
			t.Errorf("registry entry %q has no golden", e.Name)
			continue
		}
		var blocks []string
		switch {
		case e.Name == "sweep":
			blocks = []string{SweepTransferSize(streamer.URAM, []int64{32 * sim.MiB, 64 * sim.MiB}).String()}
		case e.Run != nil:
			for _, tb := range e.Run(s) {
				blocks = append(blocks, tb.String())
			}
		}
		if e.Detail != nil {
			text, more := e.Detail(s)
			blocks = append(blocks, text)
			for _, tb := range more {
				blocks = append(blocks, tb.String())
			}
		}
		if len(blocks) != len(names) {
			t.Errorf("%s prints %d blocks, goldens name %d", e.Name, len(blocks), len(names))
			continue
		}
		for i, name := range names {
			t.Run(name, func(t *testing.T) { checkGolden(t, name, blocks[i]) })
		}
	}

	// The non-text encodings ride on Figure 4a's real rows.
	fig4a := Fig4a(s.Size)
	t.Run("fig4a_csv", func(t *testing.T) { checkGolden(t, "fig4a_csv", fig4a.CSV()) })
	t.Run("fig4a_json", func(t *testing.T) { checkGolden(t, "fig4a_json", fig4a.JSON()+"\n") })

	// No real run reaches the strip chart's clamps: a negative sample
	// draws no bar, one past full scale draws a full one.
	t.Run("timeline_clamp", func(t *testing.T) {
		checkGolden(t, "timeline_clamp", RenderTimeline("URAM", []TimelinePoint{
			{At: 2 * sim.Millisecond, GBps: 7.9},
			{At: 4 * sim.Millisecond, GBps: 5.6},
			{At: 6 * sim.Millisecond, GBps: 5.3},
			{At: 8 * sim.Millisecond, GBps: -1},  // clamps to zero bars
			{At: 10 * sim.Millisecond, GBps: 99}, // clamps to full scale
		}, 8))
	})
}
