package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDiffExitCode builds the command and drives the documented
// save → load → diff determinism check: the same `-run fig1 -flows 60
// -seed 3` twice prints "no differences" and exits 0; against a store
// with one metric edited it prints that row's `~ … avg_slowdown` line and
// exits 1, so a script can gate on it.
func TestDiffExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	fig1 := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-run", "fig1", "-flows", "60", "-seed", "3"}, args...)...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
			t.Fatalf("experiments %v: %v", args, err)
		}
		return out.String(), cmd.ProcessState.ExitCode()
	}

	saved := filepath.Join(dir, "saved.json")
	if out, code := fig1("-out", saved); code != 0 {
		t.Fatalf("save run: exit %d\n%s", code, out)
	}
	out, code := fig1("-diff", saved)
	if code != 0 || !strings.Contains(out, "no differences vs "+saved) {
		t.Fatalf("identical rerun: exit %d, want 0 and \"no differences\"\n%s", code, out)
	}

	raw, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	field := regexp.MustCompile(`"avg_slowdown": [0-9.eE+-]+`).Find(raw)
	if field == nil {
		t.Fatalf("no avg_slowdown field in %s", saved)
	}
	edited := filepath.Join(dir, "edited.json")
	if err := os.WriteFile(edited, bytes.Replace(raw, field, []byte(`"avg_slowdown": 9.5`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = fig1("-diff", edited)
	if code != 1 {
		t.Errorf("edited store: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "1 differences vs "+edited) ||
		!regexp.MustCompile(`(?m)^  ~ fig1/.* avg_slowdown: 9\.5 -> `).MatchString(out) {
		t.Errorf("edited store: output does not name the edited metric\n%s", out)
	}
}

// TestBadFlagIsAUsageError: a flag no run can take exits 2 before
// anything runs, naming what is wrong and without a panic. (-flows -1
// used to panic in a fleet worker, -endurance-arity 5 in the topology
// builder, and -segments -1 reported a soak of zero segments as held.)
func TestBadFlagIsAUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "fig1", "-flows", "-1"}, "flow count -1 must be >= 0"},
		{[]string{"-run", "fig1", "-fault-loss", "-0.1"}, "loss rate -0.1 outside [0,1]"},
		{[]string{"-run", "endurance", "-endurance-arity", "5"}, "arity 5 must be even"},
		{[]string{"-run", "endurance", "-segments", "-1"}, "segment count -1 must be >= 0"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 2 {
			t.Errorf("experiments %v: exit %d (%v), want 2", tc.args, code, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "panic") {
			t.Errorf("experiments %v: stderr %q, want one saying %q", tc.args, msg, tc.want)
		}
	}
}
