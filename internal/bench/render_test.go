package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"snacc/internal/casestudy"
	"snacc/internal/cluster"
	"snacc/internal/fpga"
	"snacc/internal/obs"
	"snacc/internal/sim"
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

// TestRenderGolden pins the exact rendered text of every table renderer
// against synthetic rows. The fixtures are hand-picked to hit the formatting
// branches (missing cells, unit scaling, the "-" placeholders), so renderer
// regressions show up as a readable text diff instead of a downstream
// determinism failure.
func TestRenderGolden(t *testing.T) {
	imgLat := &obs.Hist{}
	for _, s := range []sim.Time{100 * sim.Microsecond, 200 * sim.Microsecond, 600 * sim.Microsecond} {
		imgLat.Record(s)
	}
	caseRows := []casestudy.Result{
		{Variant: "URAM", Images: 16, Bytes: 3 << 30, Elapsed: sim.Time(600 * sim.Millisecond),
			PCIe: map[string]int64{"card": 3 << 30, "ssd": 3 << 30}, PCIeTotal: 6 << 30,
			ImageLatency: imgLat, EthernetPauses: 2},
		{Variant: "SPDK", Images: 16, Bytes: 3 << 30, Elapsed: sim.Time(500 * sim.Millisecond),
			PCIe: map[string]int64{"host": 3 << 30, "ssd": 3 << 30}, PCIeTotal: 9 << 30,
			BusyPolling: true},
	}
	uramRes := fpga.Resources{LUT: 12000, FF: 24000, BRAM: 32.5, URAMBlocks: 64}
	dramRes := fpga.Resources{LUT: 15000, FF: 30000, BRAM: 40, DRAMBytes: 64 * sim.MiB}
	hostRes := fpga.Resources{LUT: 9000, FF: 18000, BRAM: 24, HostDRAMBytes: 4 * sim.MiB}
	dev := fpga.AlveoU280()

	cases := []struct {
		name string
		out  string
	}{
		{"fig4a", RenderFig4a([]Fig4aRow{
			{Label: "URAM", SeqReadGB: 6.91, SeqWriteGB: 5.45, WriteHiGB: 5.6, WriteLoGB: 5.32},
			{Label: "SPDK", SeqReadGB: 6.88, SeqWriteGB: 6.07, WriteHiGB: 6.24, WriteLoGB: 5.9},
		}).String()},
		{"fig4b", RenderFig4b([]Fig4bRow{
			{Label: "URAM", RandReadGB: 1.62, RandWriteGB: 4.55},
			{Label: "SPDK", RandReadGB: 4.5, RandWriteGB: 5.25},
		}).String()},
		{"fig4c", RenderFig4c([]Fig4cRow{
			{Label: "URAM", ReadLatency: 34 * sim.Microsecond, ReadP99: 41 * sim.Microsecond,
				WriteLatency: 8200, WriteP99: 8900},
		}).String()},
		{"table1", RenderTable1([]Table1Row{
			{Label: "URAM", Resources: uramRes, Util: uramRes.Utilization(dev)},
			{Label: "On-board DRAM", Resources: dramRes, Util: dramRes.Utilization(dev)},
			{Label: "Host DRAM", Resources: hostRes, Util: hostRes.Utilization(dev)},
		}).String()},
		{"fig6", RenderFig6(caseRows).String()},
		{"fig7", RenderFig7(caseRows).String()},
		{"fig6_striped", RenderFig6Striped(caseRows).String()},
		{"ablation_qd", RenderAblationQD([]AblationQDRow{
			{QueueDepth: 4, SPDKGB: 2.1, SNAccGB: 1.6},
			{QueueDepth: 64, SPDKGB: 4.5, SNAccGB: 1.62},
		}).String()},
		{"ablation_ooo", RenderAblationOOO([]AblationOOORow{
			{Label: "in-order (paper)", RandReadGB: 1.6, SeqReadGB: 6.9},
			{Label: "out-of-order (§7)", RandReadGB: 4.4, SeqReadGB: 6.9},
		}).String()},
		{"ablation_multissd", RenderAblationMultiSSD([]AblationMultiSSDRow{
			{SSDs: 1, SeqWriteGB: 5.4, PerSSDWrite: 5.4},
			{SSDs: 4, SeqWriteGB: 12.1, PerSSDWrite: 3.03},
		}).String()},
		{"ablation_gen5", RenderAblationGen5([]AblationGen5Row{
			{Label: "Gen4 x4 (paper)", SeqReadGB: 6.9, SeqWriteGB: 5.45},
			{Label: "Gen5 x4", SeqReadGB: 12.3, SeqWriteGB: 11.1},
		}).String()},
		{"ablation_dram", RenderAblationDRAM([]AblationDRAMRow{
			{Label: "single controller (paper)", SeqWriteGB: 4.7},
			{Label: "dual controller / HBM (§7)", SeqWriteGB: 5.5},
		}).String()},
		{"ablation_hbm", RenderAblationHBM([]AblationHBMRow{
			{Label: "DDR4, single controller (paper)", SeqWriteGB: 4.7, SeqReadGB: 6.8},
			{Label: "HBM (§7)", SeqWriteGB: 5.6, SeqReadGB: 6.9},
		}).String()},
		{"ablation_mtu", RenderAblationMTU([]AblationMTURow{
			{MTU: 1500, CeilingGB: 12.19, CaseGB: 11.8, FPS: 1290},
			{MTU: 9000, CeilingGB: 12.45, CaseGB: 12.2, FPS: 1345},
		}).String()},
		{"ablation_qp", RenderAblationQP([]AblationQPRow{
			{Streamers: 1, SeqWriteGB: 5.4, RandReadGB: 1.6},
			{Streamers: 4, SeqWriteGB: 5.4, RandReadGB: 6.1},
		}).String()},
		{"sweep", RenderSweep("URAM", []SweepRow{
			{TransferBytes: 64 * sim.MiB, SeqWriteGB: 5.41, SeqReadGB: 6.9},
			{TransferBytes: 256 * sim.MiB, SeqWriteGB: 5.45, SeqReadGB: 6.91},
		}).String()},
		{"faultsweep", RenderFaultSweep([]FaultSweepRow{
			{RatePct: 0, GoodputGB: 6.9, Amplification: 1},
			{RatePct: 5, GoodputGB: 6.2, Injected: 13, Errors: 13, Retries: 12,
				Timeouts: 1, Aborts: 1, Amplification: 1.05},
		}).String()},
		{"queuesweep", RenderQueueSweep([]QueueSweepRow{
			{Queues: 1, DoorbellBatch: 1, KIOPS: 398.4, P99Us: 157.5, DoorbellRatio: 2, Speedup: 1},
			{Queues: 4, DoorbellBatch: 8, KIOPS: 700.0, P99Us: 144.9, DoorbellRatio: 0.315, Speedup: 1.76},
		}).String()},
		{"crashsweep", RenderCrashSweep([]CrashSweepRow{
			{CrashEveryN: 0, GoodputGB: 6.9},
			{CrashEveryN: 16, GoodputGB: 4.8, Crashes: 4, Trips: 4, Resets: 4,
				Replayed: 210, MTTRUs: 1250.4},
		}).String()},
		{"tenantsweep", RenderTenantSweep([]TenantSweepRow{
			{Sched: "solo", Tenant: "victim", Reads: 400, KIOPS: 16.8, P50Us: 34.8, P99Us: 39.5, VsSolo: 1},
			{Sched: "drr", Tenant: "victim", Reads: 400, KIOPS: 8.6, P50Us: 34.8, P99Us: 39.9, VsSolo: 1.01},
			{Sched: "drr", Tenant: "noisy", Reads: 2400, KIOPS: 105.0, P50Us: 368.6, P99Us: 450.6},
			{Sched: "fifo", Tenant: "victim", Reads: 400, KIOPS: 9.2, P50Us: 34.8, P99Us: 442.4, VsSolo: 11.19},
			{Sched: "fifo", Tenant: "noisy", Reads: 2400, KIOPS: 105.0, P50Us: 368.6, P99Us: 442.4},
		}).String()},
		{"striped_degraded", RenderStripedDegraded(StripedDegradedRow{
			Members: 2, DeadMember: 1, WriteGB: 4.1, DegradedWrites: 7,
			DegradedReads: 8, SurvivorBytes: 8 * sim.MiB,
		}).String()},
		{"clustersweep", RenderClusterSweep([]ClusterSweepRow{
			{Nodes: 3, Replication: 2, Quorum: 1, WriteGB: 4.8, NodeDeaths: 1,
				Failovers: 3, ReRepMiB: 1.25, DegradedUs: 2140.5, Timeouts: 2},
			{Nodes: 4, Replication: 3, Quorum: 3, WriteGB: 3.9, NodeDeaths: 1,
				Failovers: 5, ReRepMiB: 2.5, DegradedUs: 3377.1, Timeouts: 4,
				FailedWr: 2, UnderRep: 0},
		}).String()},
		{"clusterrecovery", RenderClusterRecovery(cluster.Stats{
			NodeDeaths: 1, Rejoins: 1, Probes: 6, RequestTimeouts: 3,
			LinkFramesDropped: 42, ReReplicatedBytes: 2 * sim.MiB,
		}).String()},
		{"latency", RenderLatencyBreakdown([]LatencyRow{
			{Variant: "URAM", Op: "write", Stage: "fetched", Count: 256,
				P50: 3484, P90: 3600, P99: 3700, P999: 3701, Max: 3702},
			{Variant: "URAM", Op: "read", Stage: "cqe", Count: 256,
				P50: 500 * sim.Microsecond, P90: 700 * sim.Microsecond,
				P99: 900 * sim.Microsecond, P999: sim.Millisecond, Max: 2 * sim.Millisecond},
		}).String()},
		{"timeline", RenderTimeline("URAM", []TimelinePoint{
			{At: 2 * sim.Millisecond, GBps: 7.9},
			{At: 4 * sim.Millisecond, GBps: 5.6},
			{At: 6 * sim.Millisecond, GBps: 5.3},
			{At: 8 * sim.Millisecond, GBps: -1},  // clamps to zero bars
			{At: 10 * sim.Millisecond, GBps: 99}, // clamps to full scale
		}, 8)},
	}
	// The non-text encodings ride on one representative fixture each.
	cases = append(cases,
		struct {
			name string
			out  string
		}{"fig4a_csv", RenderFig4a([]Fig4aRow{
			{Label: "URAM", SeqReadGB: 6.91, SeqWriteGB: 5.45, WriteHiGB: 5.6, WriteLoGB: 5.32},
		}).CSV()},
		struct {
			name string
			out  string
		}{"fig4a_json", RenderFig4a([]Fig4aRow{
			{Label: "URAM", SeqReadGB: 6.91, SeqWriteGB: 5.45, WriteHiGB: 5.6, WriteLoGB: 5.32},
		}).JSON() + "\n"},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkGolden(t, c.name, c.out) })
	}
}
