package bench

import (
	"encoding/json"
	"reflect"
	"testing"

	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// value reads one number back from tb, failing the test when the cell is
// missing or holds text.
func value(t *testing.T, tb Table, label, column string) float64 {
	t.Helper()
	v, ok := tb.Value(label, column)
	if !ok {
		t.Fatalf("%s: no number at %q/%q", tb.Title, label, column)
	}
	return v
}

func TestFig4aShape(t *testing.T) {
	tb := Fig4a(192 * sim.MiB)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if rd := value(t, tb, r.Label, "seq-r"); rd < 6.4 || rd > 7.1 {
			t.Errorf("%s seq read %.2f outside paper band", r.Label, rd)
		}
	}
	w := func(label string) float64 { return value(t, tb, label, "seq-w") }
	if !(w("Host DRAM") > w("URAM") && w("URAM") > w("On-board DRAM")) {
		t.Errorf("Figure 4a write ordering violated:\n%s", tb)
	}
	// The alternating-band spread must be visible on SPDK/Host writes.
	if lo, hi := value(t, tb, "SPDK", "w-low"), value(t, tb, "SPDK", "w-high"); hi-lo < 0.15 {
		t.Errorf("SPDK write band too narrow: %.2f–%.2f", lo, hi)
	}
	t.Log(tb.String())
}

func TestFig4bShape(t *testing.T) {
	tb := Fig4b(48 * sim.MiB)
	spdkRead := value(t, tb, "SPDK", "rand-r")
	// SPDK rand-read well above every SNAcc variant (in-order penalty).
	for _, v := range []string{"URAM", "On-board DRAM", "Host DRAM"} {
		if rd := value(t, tb, v, "rand-r"); rd*2 > spdkRead {
			t.Errorf("%s rand-read %.2f not well below SPDK %.2f", v, rd, spdkRead)
		}
	}
	// Host rand-write competitive with SPDK (§5.2: 4.8 vs 5.25).
	if h, s := value(t, tb, "Host DRAM", "rand-w"), value(t, tb, "SPDK", "rand-w"); h < 0.8*s {
		t.Errorf("host rand-write %.2f not competitive with SPDK %.2f", h, s)
	}
	t.Log(tb.String())
}

func TestFig4cShape(t *testing.T) {
	tb := Fig4c(120)
	for _, r := range tb.Rows {
		if wr := sim.Time(value(t, tb, r.Label, "write")); wr >= 9*sim.Microsecond {
			t.Errorf("%s write latency %v ≥ 9us", r.Label, wr)
		}
	}
	rd := func(label string) float64 { return value(t, tb, label, "read") }
	if !(rd("URAM") < rd("On-board DRAM") && rd("On-board DRAM") < rd("SPDK")) {
		t.Errorf("read latency ordering violated")
	}
	t.Log(tb.String())
}

func TestTable1Render(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if lut := value(t, tb, "URAM", "LUT"); lut <= 0 {
		t.Errorf("URAM LUTs = %v", lut)
	}
	if _, ok := tb.Value("URAM", "URAM"); ok {
		t.Error("Value read a number from Table 1's text URAM cell")
	}
	t.Log(tb.String())
}

func TestAblationQDShape(t *testing.T) {
	// §5.2: beyond the paper's QD 64, SPDK keeps gaining while the
	// in-order Streamer saturates its retirement FSM and stays flat.
	tb := AblationQD([]int{64, 256}, 24*sim.MiB)
	if s64, s256 := value(t, tb, "QD 64", "SPDK"), value(t, tb, "QD 256", "SPDK"); s256 <= s64*1.05 {
		t.Errorf("SPDK should scale past QD 64: %.2f → %.2f", s64, s256)
	}
	if g := value(t, tb, "QD 256", "SNAcc URAM") / value(t, tb, "QD 64", "SNAcc URAM"); g > 1.15 {
		t.Errorf("in-order SNAcc should stay nearly flat past QD 64, grew %.2fx", g)
	}
	t.Log(tb.String())
}

func TestAblationOOOShape(t *testing.T) {
	tb := AblationOOO(24 * sim.MiB)
	in, ooo := value(t, tb, "in-order (paper)", "rand-r"), value(t, tb, "out-of-order (§7)", "rand-r")
	if ooo <= in*1.2 {
		t.Errorf("OOO retirement should lift rand-read: %.2f vs %.2f", ooo, in)
	}
	t.Log(tb.String())
}

func TestAblationMultiSSDShape(t *testing.T) {
	tb := AblationMultiSSD([]int{1, 2, 4}, 96*sim.MiB)
	agg := func(n string) float64 { return value(t, tb, n+" SSD", "aggregate GB/s") }
	if agg("2") < agg("1")*1.7 {
		t.Errorf("2 SSDs should nearly double write BW: %.2f vs %.2f", agg("2"), agg("1"))
	}
	// §7 predicts scaling "will better saturate PCIe bandwidth": four SSDs
	// demand ~22 GB/s of P2P fetches, so the card's Gen3 x16 link (~15
	// effective GB/s) becomes the ceiling.
	if a := agg("4"); a < 13.5 || a > 15.8 {
		t.Errorf("4 SSDs should saturate the x16 link near 15 GB/s, got %.2f", a)
	}
	t.Log(tb.String())
}

func TestAblationGen5Shape(t *testing.T) {
	tb := AblationGen5(192 * sim.MiB)
	const gen4, gen5 = "Gen4 x4 (990 PRO)", "Gen5 x4 (projected)"
	if r4, r5 := value(t, tb, gen4, "seq-r"), value(t, tb, gen5, "seq-r"); r5 < r4*1.5 {
		t.Errorf("Gen5 seq read should be well above Gen4: %.2f vs %.2f", r5, r4)
	}
	if w4, w5 := value(t, tb, gen4, "seq-w"), value(t, tb, gen5, "seq-w"); w5 < w4*1.3 {
		t.Errorf("Gen5 seq write should improve: %.2f vs %.2f", w5, w4)
	}
	t.Log(tb.String())
}

func TestAblationDRAMShape(t *testing.T) {
	tb := AblationDRAM(192 * sim.MiB)
	single := value(t, tb, "single controller (paper)", "seq-w")
	if dual := value(t, tb, "dual controller / HBM (§7)", "seq-w"); dual <= single {
		t.Errorf("removing turnaround should recover write BW: %.2f vs %.2f", dual, single)
	}
	t.Log(tb.String())
}

func TestAblationHBMShape(t *testing.T) {
	tb := AblationHBM(128 * sim.MiB)
	ddr, hbm := value(t, tb, "DDR4, single controller (paper)", "seq-w"), value(t, tb, "HBM2, 32 channels (§7)", "seq-w")
	if hbm <= ddr {
		t.Errorf("HBM staging should lift on-card write BW: %.2f vs %.2f", hbm, ddr)
	}
	// The P2P read limit still caps HBM below the host-DRAM variant's 6.2.
	if hbm > 5.9 {
		t.Errorf("HBM write %.2f should stay P2P-limited below ~5.6", hbm)
	}
	t.Log(tb.String())
}

func TestSweepConvergence(t *testing.T) {
	// The EXPERIMENTS.md scaling claim for URAM: beyond 128 MiB, its
	// sequential bandwidth changes by well under 2%. Other rows (on-board
	// DRAM seq-w) have not converged at these sizes; see "Workload scaling".
	tb := SweepTransferSize(streamer.URAM, []int64{128 * sim.MiB, 256 * sim.MiB, 512 * sim.MiB})
	for i := 1; i < len(tb.Rows); i++ {
		prev, cur := tb.Rows[i-1], tb.Rows[i]
		for c, col := range tb.Columns {
			rel := (cur.Values[c] - prev.Values[c]) / prev.Values[c]
			if rel < 0 {
				rel = -rel
			}
			if rel > 0.02 {
				t.Errorf("%s moved %.1f%% between %s and %s", col.Name, rel*100, prev.Label, cur.Label)
			}
		}
	}
	t.Log(tb.String())
}

func TestTableCSV(t *testing.T) {
	tb := Table{
		Title:   "t",
		Columns: []Column{{"a", count}, {"b,c", gb}},
		Rows:    []Row{{Label: "x,y", Values: []float64{1, 2}}},
	}
	csv := tb.CSV()
	want := "label,a,b;c\nx;y,1,2.00\n"
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
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("Figure 4a diverged across identical runs:\n%s\n%s", a, b)
	}
}

func TestAblationMTUShape(t *testing.T) {
	tb := AblationMTU([]int64{1500, 9000}, 64)
	if len(tb.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tb.Rows))
	}
	measured := func(label string) float64 { return value(t, tb, label, "measured GB/s") }
	for _, r := range tb.Rows {
		got, ceiling := measured(r.Label), value(t, tb, r.Label, "link ceiling GB/s")
		if got > ceiling {
			t.Errorf("%s: measured %.2f exceeds the analytic ceiling %.2f", r.Label, got, ceiling)
		}
		if got < 0.9*ceiling {
			t.Errorf("%s: measured %.2f far below the ceiling %.2f — pipeline should be network-bound", r.Label, got, ceiling)
		}
	}
	if measured("MTU 1500") >= measured("MTU 9000") {
		t.Fatalf("standard MTU (%.2f) should underperform jumbo (%.2f)", measured("MTU 1500"), measured("MTU 9000"))
	}
	t.Log(tb.String())
}

func TestTableJSON(t *testing.T) {
	tbl := Table{
		Title:   "t",
		Columns: []Column{{"a", count}, {"b", ratio}},
		Rows:    []Row{{Label: "r1", Values: []float64{1, 2}}},
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
		doc.Rows[0].Label != "r1" || doc.Rows[0].Cells[1] != "2.00x" || doc.Notes[0] != "n" {
		t.Fatalf("round trip mangled the table: %+v", doc)
	}
}

func TestAblationQPShape(t *testing.T) {
	tb := AblationQP([]int{1, 4}, 16*sim.MiB)
	if len(tb.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tb.Rows))
	}
	const one, four = "1 streamer(s)", "4 streamer(s)"
	// Sequential writes: NAND-limited, no scaling with queue count.
	if r := value(t, tb, four, "seq-w GB/s") / value(t, tb, one, "seq-w GB/s"); r > 1.1 || r < 0.9 {
		t.Errorf("seq write scaled %.2fx with queue pairs; the NAND is the ceiling", r)
	}
	// Random reads: each streamer's in-order FSM is a per-queue limit.
	if r1, r4 := value(t, tb, one, "rand-r GB/s"), value(t, tb, four, "rand-r GB/s"); r4 < 2.2*r1 {
		t.Errorf("rand read scaled only %.2f -> %.2f across 4 queue pairs", r1, r4)
	}
	t.Log(tb.String())
}

// TestTableValue pins Value's lookups: a number by row label and column
// name, and false for a missing row, a missing column or a text cell.
func TestTableValue(t *testing.T) {
	tb := Table{
		Columns: []Column{{"n", count}, {"note", nil}},
		Rows:    []Row{{Label: "a", Values: []float64{3}, Text: map[string]string{"note": "text"}}},
	}
	if v, ok := tb.Value("a", "n"); !ok || v != 3 {
		t.Errorf(`Value("a", "n") = %v, %v; want 3, true`, v, ok)
	}
	for _, c := range [][2]string{{"b", "n"}, {"a", "m"}, {"a", "note"}} {
		if v, ok := tb.Value(c[0], c[1]); ok {
			t.Errorf("Value(%q, %q) = %v, true; want false", c[0], c[1], v)
		}
	}
	if got := tb.Cell(0, 1); got != "text" {
		t.Errorf("Cell(0, 1) = %q, want the text cell", got)
	}
}
