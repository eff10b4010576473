package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the CLI: with SNACCBENCH_MAIN=1 the test binary runs
// main on SNACCBENCH_ARGS instead of the tests, so runCLICases can check
// exit codes and diagnostics in a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("SNACCBENCH_MAIN") == "1" {
		os.Args = append([]string{"snaccbench"},
			strings.Fields(os.Getenv("SNACCBENCH_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type cliCase struct {
	name     string
	args     string
	wantExit int
	wantErr  string
}

// TestFlagValidation checks that malformed selection, format and shape
// flags are usage errors: exit 2 with a diagnostic.
func TestFlagValidation(t *testing.T) {
	runCLICases(t, []cliCase{
		{"no run", "-size 16", 2, "missing -run"},
		{"unknown run name", "-run fig5", 2, "fig4a, fig4b"},
		{"unknown format", "-run table1 -format xml", 2, "unknown -format"},
		{"size overflows int64 bytes", "-run table1 -size 17592186044417", 2, "invalid -size"},
		{"negative size wraps positive", "-run table1 -size -8796093022209", 2, "invalid -size"},
		{"queues without queues", "-run serve -queues 1,2", 2, "-queues requires -run queues"},
		{"queue count out of range", "-run queues -queues 9", 2, "invalid -queues entry"},
		{"one node", "-run cluster -nodes 1", 2, "invalid -nodes"},
		{"replication above nodes", "-run cluster -nodes 2 -replication 3", 2, "invalid -replication"},
		{"quorum above replication", "-run cluster -nodes 3 -replication 2 -quorum 3", 2, "invalid -quorum"},
		{"nodes without cluster", "-run all -nodes 3 -replication 2 -quorum 1", 2, "require -run cluster"},
	})
}

// TestServeFlagValidation checks that malformed serving-sweep flags are
// usage errors, while a valid invocation completes and writes
// BENCH_serve.json.
func TestServeFlagValidation(t *testing.T) {
	runCLICases(t, []cliCase{
		{"clients without serve", "-run all -clients 100", 2, "-clients/-phases require -run serve"},
		{"phases without serve", "-run crash -phases 1:200", 2, "-clients/-phases require -run serve"},
		{"non-integer clients", "-run serve -clients 10,abc", 2, "not an integer"},
		{"zero clients", "-run serve -clients 0", 2, "must be positive"},
		{"empty clients", "-run serve -clients ,", 2, "not an integer"},
		{"phases missing duration", "-run serve -phases 1", 2, "scale:µs"},
		{"phases zero scale", "-run serve -phases 0:200", 2, "scale must be a positive number"},
		{"phases bad duration", "-run serve -phases 1:xyz", 2, "duration must be positive"},
		{"valid run", "-run serve -clients 1000,2000 -phases 1:100,4:25", 0, ""},
	})
}

// runCLICases runs each case's arguments through the CLI in a fresh
// directory. A case expecting exit 0 must leave a BENCH_serve.json behind.
func runCLICases(t *testing.T, cases []cliCase) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0])
			cmd.Dir = dir
			cmd.Env = append(os.Environ(),
				"SNACCBENCH_MAIN=1", "SNACCBENCH_ARGS="+tc.args)
			out, err := cmd.CombinedOutput()
			exit := 0
			if ee, ok := err.(*exec.ExitError); ok {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("running %q: %v\n%s", tc.args, err, out)
			}
			if exit != tc.wantExit {
				t.Fatalf("%q exited %d, want %d\n%s", tc.args, exit, tc.wantExit, out)
			}
			if tc.wantErr != "" && !strings.Contains(string(out), tc.wantErr) {
				t.Fatalf("%q output %q does not mention %q", tc.args, out, tc.wantErr)
			}
			if tc.wantExit == 0 {
				doc, err := os.ReadFile(filepath.Join(dir, "BENCH_serve.json"))
				if err != nil {
					t.Fatalf("valid run left no BENCH_serve.json: %v", err)
				}
				if !strings.Contains(string(doc), "Serve sweep") {
					t.Fatalf("BENCH_serve.json content: %q", doc)
				}
			}
		})
	}
}
