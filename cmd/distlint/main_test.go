package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDistlint compiles the driver once per test binary.
func buildDistlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "distlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building distlint: %v\n%s", err, out)
	}
	return bin
}

// TestRealTreeClean is the keystone regression: the committed tree must be
// distlint-green. Reverting any invariant fix (a sentinel compared with
// ==, a missing //dist:locked annotation) fails here.
func TestRealTreeClean(t *testing.T) {
	bin := buildDistlint(t)
	cmd := exec.Command(bin, "-dir", "../..", "./...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("distlint on the real tree: %v\n%s", err, out)
	}
	if len(strings.TrimSpace(string(out))) != 0 {
		t.Fatalf("distlint on the real tree printed findings:\n%s", out)
	}
}

// TestKnownBadFixtureFails pins the non-zero exit: pointed at a fixture
// package with seeded violations, the driver must report and exit 1.
func TestKnownBadFixtureFails(t *testing.T) {
	bin := buildDistlint(t)
	cmd := exec.Command(bin, "-dir", "../../internal/analysis/testdata/lockcheck", "./...")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, out)
	}
	if !strings.Contains(string(out), "distlint/lockcheck") {
		t.Fatalf("findings lack the lockcheck tag:\n%s", out)
	}
}
