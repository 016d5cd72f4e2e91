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

// TestKVOnTooSmallFabricIsAUsageError builds the command and runs
// `irnsim -arity 2 -kv 10` — two hosts for a leader and two followers,
// which used to hang in placement: it must exit 2 with the counts on
// stderr, promptly.
func TestKVOnTooSmallFabricIsAUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	bin := filepath.Join(t.TempDir(), "irnsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
