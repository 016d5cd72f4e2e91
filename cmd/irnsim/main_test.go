package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the command")
	}
	bin := filepath.Join(t.TempDir(), "irnsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestKVOnTooSmallFabricIsAUsageError builds the command and runs
// `irnsim -arity 2 -kv 10` — two hosts for a leader and two followers,
// which used to hang in placement: it must exit 2 with the counts on
// stderr, promptly.
func TestKVOnTooSmallFabricIsAUsageError(t *testing.T) {
	bin := build(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-arity", "2", "-kv", "10")
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatal("irnsim -arity 2 -kv 10 did not return")
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "need 3 hosts, the fabric has 2") {
		t.Errorf("stderr = %q", stderr.String())
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("took %v to reject the flags", d)
	}
}

// run executes the command and keys its output lines by their first
// field; the header line of a default run is "transport=irn".
func run(t *testing.T, bin string, args ...string) map[string]string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("irnsim %v: %v\n%s", args, err, out)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(string(out), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			lines[f[0]] = l
		}
	}
	return lines
}

// TestKVWithExplicitFlows: `-kv` runs the service alone unless `-flows`
// is given on the command line, in which case those flows run next to it
// in the same simulation. The header reports the flows actually run.
func TestKVWithExplicitFlows(t *testing.T) {
	bin := build(t)
	lines := run(t, bin, "-arity", "4", "-kv", "100", "-flows", "50")
	if l := lines["transport=irn"]; !strings.Contains(l, " flows=50 ") {
		t.Errorf("header %q, want flows=50", l)
	}
	if l := lines["flows"]; !strings.Contains(l, "50 completed") {
		t.Errorf("flows line %q, want 50 completed", l)
	}
	if l := lines["kv"]; !strings.Contains(l, "100/100 resolved") {
		t.Errorf("kv line %q, want 100/100 resolved", l)
	}
	if l := run(t, bin, "-arity", "4", "-kv", "20")["transport=irn"]; !strings.Contains(l, " flows=0 ") {
		t.Errorf("header of a KV-only run %q, want flows=0", l)
	}
}

// wantUsageError runs the command with args and wants exit status 2
// with a stderr that names flag — and no panic, which exits 2 as well.
func wantUsageError(t *testing.T, bin, flag string, args ...string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("irnsim %v: exit = %v, want status 2 (stderr %q)", args, err, stderr.String())
	} else if !strings.Contains(stderr.String(), flag) || strings.Contains(stderr.String(), "panic") {
		t.Errorf("irnsim %v: stderr %q does not name %s", args, stderr.String(), flag)
	}
}

// TestBadFabricShapeIsAUsageError: an odd arity (alone or with -kv,
// which sizes the fabric early), a negative buffer, link rate or load, an
// incast fan-in outside [0, hosts) and a negative flow or KV request
// count exit 2 before anything runs, naming the flag. (A negative load or
// a 16-way incast on a 16-host fabric used to panic in a fleet worker, a
// negative rate in the launcher; -flows -1 ran nothing and exited 0.) So
// do fault flags that would build no fault — zero chaos cycles or flaps
// per link, a negative link count — which used to run fault-free, and a
// congestion control on iWARP, which used to run without it.
func TestBadFabricShapeIsAUsageError(t *testing.T) {
	bin := build(t)
	wantUsageError(t, bin, "-arity", "-arity", "5")
	wantUsageError(t, bin, "-arity", "-arity", "5", "-kv", "10")
	wantUsageError(t, bin, "-arity", "-arity", "0")
	wantUsageError(t, bin, "-buffer", "-arity", "4", "-buffer", "-1")
	wantUsageError(t, bin, "-load", "-arity", "4", "-load", "-1")
	wantUsageError(t, bin, "-gbps", "-arity", "4", "-gbps", "-5")
	wantUsageError(t, bin, "-incast", "-arity", "4", "-incast", "16")
	wantUsageError(t, bin, "-incast", "-arity", "4", "-incast", "-1")
	wantUsageError(t, bin, "-flows", "-arity", "4", "-flows", "-1")
	wantUsageError(t, bin, "-kv", "-arity", "4", "-kv", "-1")
	// Fault flags that would build no fault and run fault-free.
	wantUsageError(t, bin, "-chaos-cycles", "-arity", "4", "-chaos", "rolling", "-chaos-cycles", "0")
	wantUsageError(t, bin, "-chaos-cycles", "-arity", "4", "-chaos", "rolling", "-chaos-cycles", "-1")
	wantUsageError(t, bin, "-flap-count", "-arity", "4", "-flap-links", "2", "-flap-count", "0")
	wantUsageError(t, bin, "-flap-links", "-arity", "4", "-flap-links", "-2")
	wantUsageError(t, bin, "-degrade-links", "-arity", "4", "-degrade-links", "-1")
	// iWARP's TCP stack has its own congestion control and takes no other.
	wantUsageError(t, bin, "-cc", "-arity", "4", "-transport", "iwarp", "-cc", "dcqcn")
}

// TestShardedFaultOrKVIsAUsageError: KV and fault-injected runs are
// serial, so asking for more than one shard with them exits 2.
func TestShardedFaultOrKVIsAUsageError(t *testing.T) {
	bin := build(t)
	wantUsageError(t, bin, "-shards", "-arity", "4", "-shards", "2", "-kv", "20")
	wantUsageError(t, bin, "-shards", "-arity", "4", "-shards", "2", "-chaos", "rolling")
}
