package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRecord(t *testing.T, name string, rows ...Row) string {
	t.Helper()
	rec := Record{Rows: rows}
	attachSpeedups(&rec)
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDeltaGatesNsAndBytesNotSpeedup: a faster serial path lowers the
// derived speedup of its sharded sibling by construction; that is printed,
// not failed. ns/op and bytes/op regressions still fail, and retired
// benchmarks are listed in sorted order.
func TestDeltaGatesNsAndBytesNotSpeedup(t *testing.T) {
	old := writeRecord(t, "old.json",
		Row{Name: "FigDC", NsPerOp: 1000, BytesPerOp: 100},
		Row{Name: "FigDCShards", NsPerOp: 800, BytesPerOp: 100},
		Row{Name: "Zeta", NsPerOp: 1}, Row{Name: "Alpha", NsPerOp: 1}, Row{Name: "Mid", NsPerOp: 1})
	faster := writeRecord(t, "faster.json",
		Row{Name: "FigDC", NsPerOp: 600, BytesPerOp: 100},       // serial −40%
		Row{Name: "FigDCShards", NsPerOp: 780, BytesPerOp: 100}) // sharded −2.5%: speedup 1.25x → 0.77x

	var out bytes.Buffer
	if code := diffRecords(&out, old, faster, 10, 10); code != 0 {
		t.Fatalf("a speedup drop with no ns/op regression failed the delta:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0.77x-38.5%") {
		t.Errorf("speedup column missing from the table:\n%s", out.String())
	}
	a, m, z := strings.Index(out.String(), "Alpha"), strings.Index(out.String(), "Mid"), strings.Index(out.String(), "Zeta")
	if a < 0 || !(a < m && m < z) || strings.Count(out.String(), "(removed)") != 3 {
		t.Errorf("removed rows not listed in sorted order:\n%s", out.String())
	}

	for name, row := range map[string]Row{
		"ns/op":    {Name: "FigDCShards", NsPerOp: 900, BytesPerOp: 100},
		"bytes/op": {Name: "FigDCShards", NsPerOp: 800, BytesPerOp: 120},
	} {
		slower := writeRecord(t, "slower.json", Row{Name: "FigDC", NsPerOp: 1000, BytesPerOp: 100}, row)
		out.Reset()
		if code := diffRecords(&out, old, slower, 10, 10); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
			t.Errorf("%s regression: exit code %d, want 1 and a REGRESSION mark:\n%s", name, code, out.String())
		}
	}
}
