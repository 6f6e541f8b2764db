package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchModeRunsRequestedTables builds the binary and runs bench
// mode together with a table: the quality rows must be logged and the
// table printed after them, with a zero exit status.
func TestBenchModeRunsRequestedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the rpbench binary")
	}
	bin := filepath.Join(t.TempDir(), "rpbench")
	build := exec.Command("go", "build", "-o", bin, "robustperiod/cmd/rpbench")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build rpbench: %v\n%s", err, out)
	}

	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-quick", "-table", "4")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("rpbench -quick -table 4: %v\nstderr:\n%s", err, stderr.String())
	}
	if rows := strings.Count(stderr.String(), "bench: table"); rows != 18 {
		t.Errorf("logged %d quality rows, want 18:\n%s", rows, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 4:") || !strings.Contains(stdout.String(), "RobustPeriod") {
		t.Errorf("Table 4 missing from stdout:\n%s", stdout.String())
	}
}
