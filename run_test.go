package snacc

import (
	"slices"
	"strings"
	"testing"

	"snacc/internal/bench"
	"snacc/internal/casestudy"
	"snacc/internal/sim"
)

// TestRun checks that Run(s, "all") returns exactly the tables the
// registry renders for "all" at the same scale, in registry order.
func TestRun(t *testing.T) {
	s := DefaultScale()
	s.Size, s.Images, s.Samples = 16*sim.MiB, 16, 20
	got, err := Run(s, "all")
	if err != nil {
		t.Fatal(err)
	}
	var gotText, wantText strings.Builder
	for _, tb := range got {
		gotText.WriteString(tb.String())
	}
	for _, e := range bench.Experiments {
		if e.InAll() {
			for _, tb := range e.Run(s) {
				wantText.WriteString(tb.String())
			}
		}
	}
	if gotText.String() != wantText.String() {
		t.Errorf("Run(all) differs from the registry's tables:\n--- Run ---\n%s\n--- registry ---\n%s", gotText.String(), wantText.String())
	}
}

// TestReportProducesAllSections checks that Run(s, "all") covers every
// paper figure, table and ablation.
func TestReportProducesAllSections(t *testing.T) {
	s := DefaultScale()
	s.Size, s.Images, s.Samples = 16*sim.MiB, 16, 20
	got, err := Run(s, "all")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 4a", "Figure 4b", "Figure 4c", "Table 1", "Figure 6", "Figure 7",
		"Ablation A1", "Ablation A2", "Ablation A3", "Ablation A4", "Ablation A5",
		"Ablation A6", "Ablation A7", "Ablation A8", "Ablation A9"} {
		if !slices.ContainsFunc(got, func(tb Table) bool { return strings.HasPrefix(tb.Title, want+" ") }) {
			t.Errorf("Run(all) has no %q table", want)
		}
	}
}

// TestExperimentDefaults checks that DefaultScale runs and returns full
// row sets. (Fast experiments only; the full sweeps run in the benches.)
func TestExperimentDefaults(t *testing.T) {
	s := DefaultScale()
	s.Samples = 40
	got, err := Run(s, "fig4c", "table1")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{"Figure 4c": 4, "Table 1": 3}
	for want, n := range rows {
		i := slices.IndexFunc(got, func(tb Table) bool { return strings.HasPrefix(tb.Title, want+" ") })
		if i < 0 {
			t.Errorf("Run(fig4c, table1) has no %q table", want)
			continue
		}
		if len(got[i].Rows) != n {
			t.Errorf("%s has %d rows, want %d", want, len(got[i].Rows), n)
		}
		if len(got[i].String()) == 0 {
			t.Errorf("%s rendered nothing", want)
		}
	}
}

// TestCaseStudySingleVariant runs one SNAcc pipeline of the Figure 6 case
// study on its own and checks it streams without loss at about URAM's
// sequential-write rate.
func TestCaseStudySingleVariant(t *testing.T) {
	cfg := casestudy.DefaultConfig()
	cfg.Source.Count = 24
	r := casestudy.RunSNAcc(URAM, cfg)
	if r.GBps() < 4.5 || r.GBps() > 6.2 {
		t.Errorf("URAM case study = %.2f GB/s", r.GBps())
	}
	if r.Errors != 0 || r.FramesDropped != 0 {
		t.Errorf("errors=%d drops=%d", r.Errors, r.FramesDropped)
	}
}

// TestRunRejects checks that a bad selection or scale is an error returned
// before any experiment runs.
func TestRunRejects(t *testing.T) {
	saved := bench.Experiments
	defer func() { bench.Experiments = saved }()
	ran := false
	bench.Experiments = slices.Clone(saved)
	for i := range bench.Experiments {
		bench.Experiments[i].Run = func(bench.Scale) []bench.Table { ran = true; return nil }
	}

	badShape := DefaultScale()
	badShape.Cluster = [][3]int{{3, 2, 3}}
	oddSize := DefaultScale()
	oddSize.Size += 4 * sim.KiB // would reach the streamer as a misaligned request
	for _, tc := range []struct {
		name  string
		s     Scale
		names []string
	}{
		{"unknown name", DefaultScale(), []string{"fig4a", "fig5"}},
		{"no names", DefaultScale(), nil},
		{"zero scale", Scale{}, []string{"all"}},
		{"quorum above replication", badShape, []string{"cluster"}},
		{"size not whole MiB", oddSize, []string{"fig4a"}},
	} {
		tables, err := Run(tc.s, tc.names...)
		if err == nil || tables != nil {
			t.Errorf("%s: Run = %d tables, err %v; want an error", tc.name, len(tables), err)
		}
		if ran {
			t.Fatalf("%s: Run ran an experiment before rejecting its input", tc.name)
		}
	}
	if _, err := Run(DefaultScale(), "table1"); err != nil || !ran {
		t.Fatalf("valid Run: err %v, ran %v; want the stubbed experiment to run", err, ran)
	}
}
