package bench

import (
	"encoding/json"
	"testing"

	"snacc/internal/sim"
	"snacc/internal/streamer"
)

func TestFig4aShape(t *testing.T) {
	rows := Fig4a(192 * sim.MiB)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byLabel := map[string]Fig4aRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.SeqReadGB < 6.4 || r.SeqReadGB > 7.1 {
			t.Errorf("%s seq read %.2f outside paper band", r.Label, r.SeqReadGB)
		}
	}
	if !(byLabel["Host DRAM"].SeqWriteGB > byLabel["URAM"].SeqWriteGB &&
		byLabel["URAM"].SeqWriteGB > byLabel["On-board DRAM"].SeqWriteGB) {
		t.Errorf("Figure 4a write ordering violated: %+v", rows)
	}
	// The alternating-band spread must be visible on SPDK/Host writes.
	if s := byLabel["SPDK"]; s.WriteHiGB-s.WriteLoGB < 0.15 {
		t.Errorf("SPDK write band too narrow: %.2f–%.2f", s.WriteLoGB, s.WriteHiGB)
	}
	t.Log(RenderFig4a(rows).String())
}

func TestFig4bShape(t *testing.T) {
	rows := Fig4b(48 * sim.MiB)
	byLabel := map[string]Fig4bRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// SPDK rand-read well above every SNAcc variant (in-order penalty).
	for _, v := range []string{"URAM", "On-board DRAM", "Host DRAM"} {
		if byLabel[v].RandReadGB*2 > byLabel["SPDK"].RandReadGB {
			t.Errorf("%s rand-read %.2f not well below SPDK %.2f",
				v, byLabel[v].RandReadGB, byLabel["SPDK"].RandReadGB)
		}
	}
	// Host rand-write competitive with SPDK (§5.2: 4.8 vs 5.25).
	if h, s := byLabel["Host DRAM"].RandWriteGB, byLabel["SPDK"].RandWriteGB; h < 0.8*s {
		t.Errorf("host rand-write %.2f not competitive with SPDK %.2f", h, s)
	}
	t.Log(RenderFig4b(rows).String())
}

func TestFig4cShape(t *testing.T) {
	rows := Fig4c(120)
	byLabel := map[string]Fig4cRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.WriteLatency >= 9*sim.Microsecond {
			t.Errorf("%s write latency %v ≥ 9us", r.Label, r.WriteLatency)
		}
	}
	if !(byLabel["URAM"].ReadLatency < byLabel["On-board DRAM"].ReadLatency &&
		byLabel["On-board DRAM"].ReadLatency < byLabel["SPDK"].ReadLatency) {
		t.Errorf("read latency ordering violated")
	}
	t.Log(RenderFig4c(rows).String())
}

func TestTable1Render(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := RenderTable1(rows).String()
	if len(out) == 0 {
		t.Fatal("empty render")
	}
	t.Log(out)
}

func TestAblationQDShape(t *testing.T) {
	// §5.2: beyond the paper's QD 64, SPDK keeps gaining while the
	// in-order Streamer saturates its retirement FSM and stays flat.
	rows := AblationQD([]int{64, 256}, 24*sim.MiB)
	if rows[1].SPDKGB <= rows[0].SPDKGB*1.05 {
		t.Errorf("SPDK should scale past QD 64: %.2f → %.2f", rows[0].SPDKGB, rows[1].SPDKGB)
	}
	if g := rows[1].SNAccGB / rows[0].SNAccGB; g > 1.15 {
		t.Errorf("in-order SNAcc should stay nearly flat past QD 64, grew %.2fx", g)
	}
	t.Log(RenderAblationQD(rows).String())
}

func TestAblationOOOShape(t *testing.T) {
	rows := AblationOOO(24 * sim.MiB)
	if rows[1].RandReadGB <= rows[0].RandReadGB*1.2 {
		t.Errorf("OOO retirement should lift rand-read: %.2f vs %.2f",
			rows[1].RandReadGB, rows[0].RandReadGB)
	}
	t.Log(RenderAblationOOO(rows).String())
}

func TestAblationMultiSSDShape(t *testing.T) {
	rows := AblationMultiSSD([]int{1, 2, 4}, 96*sim.MiB)
	if rows[1].SeqWriteGB < rows[0].SeqWriteGB*1.7 {
		t.Errorf("2 SSDs should nearly double write BW: %.2f vs %.2f",
			rows[1].SeqWriteGB, rows[0].SeqWriteGB)
	}
	// §7 predicts scaling "will better saturate PCIe bandwidth": four SSDs
	// demand ~22 GB/s of P2P fetches, so the card's Gen3 x16 link (~15
	// effective GB/s) becomes the ceiling.
	if rows[2].SeqWriteGB < 13.5 || rows[2].SeqWriteGB > 15.8 {
		t.Errorf("4 SSDs should saturate the x16 link near 15 GB/s, got %.2f", rows[2].SeqWriteGB)
	}
	t.Log(RenderAblationMultiSSD(rows).String())
}

func TestAblationGen5Shape(t *testing.T) {
	rows := AblationGen5(192 * sim.MiB)
	if rows[1].SeqReadGB < rows[0].SeqReadGB*1.5 {
		t.Errorf("Gen5 seq read should be well above Gen4: %.2f vs %.2f",
			rows[1].SeqReadGB, rows[0].SeqReadGB)
	}
	if rows[1].SeqWriteGB < rows[0].SeqWriteGB*1.3 {
		t.Errorf("Gen5 seq write should improve: %.2f vs %.2f",
			rows[1].SeqWriteGB, rows[0].SeqWriteGB)
	}
	t.Log(RenderAblationGen5(rows).String())
}

func TestAblationDRAMShape(t *testing.T) {
	rows := AblationDRAM(192 * sim.MiB)
	if rows[1].SeqWriteGB <= rows[0].SeqWriteGB {
		t.Errorf("removing turnaround should recover write BW: %.2f vs %.2f",
			rows[1].SeqWriteGB, rows[0].SeqWriteGB)
	}
	t.Log(RenderAblationDRAM(rows).String())
}

func TestAblationHBMShape(t *testing.T) {
	rows := AblationHBM(128 * sim.MiB)
	if rows[1].SeqWriteGB <= rows[0].SeqWriteGB {
		t.Errorf("HBM staging should lift on-card write BW: %.2f vs %.2f",
			rows[1].SeqWriteGB, rows[0].SeqWriteGB)
	}
	// The P2P read limit still caps HBM below the host-DRAM variant's 6.2.
	if rows[1].SeqWriteGB > 5.9 {
		t.Errorf("HBM write %.2f should stay P2P-limited below ~5.6", rows[1].SeqWriteGB)
	}
	t.Log(RenderAblationHBM(rows).String())
}

func TestSweepConvergence(t *testing.T) {
	// The EXPERIMENTS.md scaling claim for URAM: beyond 128 MiB, its
	// sequential bandwidth changes by well under 2%. Other rows (on-board
	// DRAM seq-w) have not converged at these sizes; see "Workload scaling".
	rows := SweepTransferSize(streamer.URAM, []int64{128 * sim.MiB, 256 * sim.MiB, 512 * sim.MiB})
	for i := 1; i < len(rows); i++ {
		for _, pair := range [][2]float64{
			{rows[i].SeqWriteGB, rows[i-1].SeqWriteGB},
			{rows[i].SeqReadGB, rows[i-1].SeqReadGB},
		} {
			rel := (pair[0] - pair[1]) / pair[1]
			if rel < 0 {
				rel = -rel
			}
			if rel > 0.02 {
				t.Errorf("bandwidth moved %.1f%% between %d and %d MiB",
					rel*100, rows[i-1].TransferBytes/sim.MiB, rows[i].TransferBytes/sim.MiB)
			}
		}
	}
	t.Log(RenderSweep("URAM", rows).String())
}

func TestTableCSV(t *testing.T) {
	tb := Table{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    []TableRow{{Label: "x,y", Cells: []string{"1", "2"}}},
	}
	csv := tb.CSV()
	want := "label,a,b\nx;y,1,2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTimelineShowsEpochs(t *testing.T) {
	pts := Timeline(streamer.URAM, 96*sim.MiB, 2*sim.Millisecond)
	if len(pts) < 6 {
		t.Fatalf("only %d samples", len(pts))
	}
	// Ignore the trailing drain sample; the body must show two distinct
	// bandwidth plateaus (the banding epochs).
	body := pts[:len(pts)-1]
	min, max := body[0].GBps, body[0].GBps
	for _, p := range body {
		if p.GBps < min {
			min = p.GBps
		}
		if p.GBps > max {
			max = p.GBps
		}
	}
	if max-min < 0.1 {
		t.Fatalf("timeline flat (%.2f..%.2f); banding epochs should be visible", min, max)
	}
	if out := RenderTimeline("URAM", pts, 8); len(out) == 0 {
		t.Fatal("empty render")
	}
}

func TestFig4aDeterministic(t *testing.T) {
	a := Fig4a(96 * sim.MiB)
	b := Fig4a(96 * sim.MiB)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAblationMTUShape(t *testing.T) {
	rows := AblationMTU([]int64{1500, 9000}, 64)
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.CaseGB > r.CeilingGB {
			t.Errorf("MTU %d: measured %.2f exceeds the analytic ceiling %.2f", r.MTU, r.CaseGB, r.CeilingGB)
		}
		if r.CaseGB < 0.9*r.CeilingGB {
			t.Errorf("MTU %d: measured %.2f far below the ceiling %.2f — pipeline should be network-bound", r.MTU, r.CaseGB, r.CeilingGB)
		}
	}
	if rows[0].CaseGB >= rows[1].CaseGB {
		t.Fatalf("standard MTU (%.2f) should underperform jumbo (%.2f)", rows[0].CaseGB, rows[1].CaseGB)
	}
	t.Log(RenderAblationMTU(rows).String())
}

func TestTableJSON(t *testing.T) {
	tbl := Table{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    []TableRow{{Label: "r1", Cells: []string{"1", "2"}}},
		Notes:   []string{"n"},
	}
	var doc struct {
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
		Rows    []struct {
			Label string   `json:"label"`
			Cells []string `json:"cells"`
		} `json:"rows"`
		Notes []string `json:"notes"`
	}
	if err := json.Unmarshal([]byte(tbl.JSON()), &doc); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if doc.Title != "t" || len(doc.Columns) != 2 || len(doc.Rows) != 1 ||
		doc.Rows[0].Label != "r1" || doc.Rows[0].Cells[1] != "2" || doc.Notes[0] != "n" {
		t.Fatalf("round trip mangled the table: %+v", doc)
	}
}

func TestAblationQPShape(t *testing.T) {
	rows := AblationQP([]int{1, 4}, 16*sim.MiB)
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	// Sequential writes: NAND-limited, no scaling with queue count.
	if r := rows[1].SeqWriteGB / rows[0].SeqWriteGB; r > 1.1 || r < 0.9 {
		t.Errorf("seq write scaled %.2fx with queue pairs; the NAND is the ceiling", r)
	}
	// Random reads: each streamer's in-order FSM is a per-queue limit.
	if rows[1].RandReadGB < 2.2*rows[0].RandReadGB {
		t.Errorf("rand read scaled only %.2f -> %.2f across 4 queue pairs",
			rows[0].RandReadGB, rows[1].RandReadGB)
	}
	t.Log(RenderAblationQP(rows).String())
}
