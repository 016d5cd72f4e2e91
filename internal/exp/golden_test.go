package exp

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden-metrics regression fixtures: small-scale summary outputs for
// Figures 1, 4 (Timely and DCQCN), 7, 9 and 11 (iWARP) and the §4.4.4
// window-based controllers (windowcc) are checked in under testdata/, and
// this test diffs fresh runs against them field by field. The simulator
// is deterministic to the picosecond, so any divergence — one event, one
// drop, one retransmission — is a behavior change, and datapath
// refactors cannot silently alter results.
//
// After an intentional model change, regenerate with
//
//	go test ./internal/exp -run TestGoldenMetrics -update-golden
//
// and review the fixture diff like any other code change.

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden metric fixtures")

// goldenScale keeps fixture runs fast while exercising drops, recovery and
// incast. Changing it invalidates the fixtures (regenerate and review).
func goldenScale() Scale {
	return Scale{Flows: 120, IncastBytes: 1_000_000, IncastReps: 1}
}

// goldenRow pins the deterministic observables of one scenario run. All
// fields are exact integers or floats produced by a fixed arithmetic
// sequence; comparison is exact equality.
type goldenRow struct {
	Name        string  `json:"name"`
	Events      uint64  `json:"events"`
	SimTimePs   int64   `json:"sim_time_ps"`
	Flows       int     `json:"flows"`
	Incomplete  int     `json:"incomplete"`
	AvgFCTps    int64   `json:"avg_fct_ps"`
	P99FCTps    int64   `json:"p99_fct_ps"`
	AvgSlowdown float64 `json:"avg_slowdown"`
	RCTps       int64   `json:"rct_ps"`
	Delivered   uint64  `json:"delivered"`
	Drops       uint64  `json:"drops"`
	FaultDrops  uint64  `json:"fault_drops"`
	Corrupted   uint64  `json:"corrupted"`
	PauseFrames uint64  `json:"pause_frames"`
	Retransmits uint64  `json:"retransmits"`
	Timeouts    uint64  `json:"timeouts"`
	Injected    uint64  `json:"injected"`
}

func toGoldenRow(r Result) goldenRow {
	return goldenRow{
		Name:        r.Name,
		Events:      r.Events,
		SimTimePs:   int64(r.SimTime),
		Flows:       r.Summary.Flows,
		Incomplete:  r.Summary.Incomplete,
		AvgFCTps:    int64(r.AvgFCT),
		P99FCTps:    int64(r.TailFCT),
		AvgSlowdown: r.AvgSlowdown,
		RCTps:       int64(r.RCT),
		Delivered:   r.Net.Delivered,
		Drops:       r.Net.Drops,
		FaultDrops:  r.Net.FaultDrops,
		Corrupted:   r.Net.Corrupted,
		PauseFrames: r.Net.PauseFrames,
		Retransmits: r.Retransmits,
		Timeouts:    r.Timeouts,
		Injected:    r.Census.Injected,
	}
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden_"+id+".json")
}

func TestGoldenMetrics(t *testing.T) {
	sc := goldenScale()
	for _, id := range []string{"fig1", "fig4", "fig7", "fig9", "fig11", "windowcc"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(id, sc)
			if !ok {
				t.Fatalf("experiment %q missing", id)
			}
			rows := make([]goldenRow, 0, len(e.Scenarios))
			for _, r := range RunExperiment(e) {
				rows = append(rows, toGoldenRow(r))
			}

			checkGolden(t, goldenPath(id), rows)
		})
	}
}

// TestGoldenIWARPTimeouts pins iWARP where its retransmission timer runs.
// The fig11 fixture's iWARP row sees only 3 timeouts at goldenScale, so
// the Figure 11 iWARP row at 4 000 flows — 472 timeouts at the default
// seed, 11.7 M events — has a fixture of its own.
func TestGoldenIWARPTimeouts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 11.7 M events")
	}
	s := Figure11(Scale{Flows: 4000}).Scenarios[0]
	if s.Transport != TransportTCP {
		t.Fatalf("Figure 11's first row is %v, want iWARP", s.Transport)
	}
	checkGolden(t, goldenPath("fig11_iwarp4k"), []goldenRow{toGoldenRow(Run(s))})
}

// checkGolden diffs rows against the fixture at path, or rewrites the
// fixture under -update-golden.
func checkGolden(t *testing.T, path string, rows []goldenRow) {
	t.Helper()
	if *updateGolden {
		buf, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d rows)", path, len(rows))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenRow
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if len(want) != len(rows) {
		t.Fatalf("fixture has %d rows, run produced %d (regenerate with -update-golden)", len(want), len(rows))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("row %d diverged from golden fixture:\n got: %+v\nwant: %+v\n(intentional model change? regenerate with -update-golden and review the diff)",
				i, rows[i], want[i])
		}
	}
}
