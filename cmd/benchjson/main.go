// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark record on stdout, so the repo's perf trajectory can be checked
// in and diffed across PRs (see scripts/bench.sh, which writes the
// sequence BENCH_1.json, BENCH_2.json, ...).
//
// Standard benchmark columns become ns_per_op / bytes_per_op /
// allocs_per_op; every custom unit reported via b.ReportMetric (slowdowns,
// FCT ratios, Mpps) lands in the per-benchmark "metrics" map. One metric
// is derived rather than parsed: for every benchmark pair named X and
// XShards, the sharded row gets "speedup" = X ns/op ÷ XShards ns/op —
// the intra-run parallel speedup of the conservative-parallel engine
// (see attachSpeedups).
//
// With -delta OLD.json NEW.json it instead diffs two recorded runs,
// printing per-benchmark ns/op, bytes/op, and allocs/op changes and the
// speedup column, and exits non-zero if any benchmark regressed ns/op by
// more than -max-regress percent or bytes/op by more than
// -max-mem-regress percent — the check `scripts/bench.sh delta` runs in
// CI against the two newest checked-in baselines. The speedup column is
// printed, never gated: it is a ratio to the serial row, so it drops
// whenever the serial path alone gets faster.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Row is one benchmark result.
type Row struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Record is the whole run.
type Record struct {
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Rows   []Row  `json:"benchmarks"`
}

// gomaxprocsSuffix strips the -N parallelism suffix go test appends to
// benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// speedupMetric is the derived metric name attachSpeedups writes.
const speedupMetric = "speedup"

// attachSpeedups derives the intra-run parallel speedup for every
// benchmark pair named X / XShards: the serial run's ns/op divided by
// the sharded run's, attached to the sharded row as the "speedup"
// metric. It is recomputed (overwriting any prior value) so min-merged
// records stay consistent with their merged ns/op columns. On a box
// with fewer cores than shards the ratio hovers near 1.0; the delta
// table prints it beside the same box's previous baseline as a
// parallel-efficiency reading.
func attachSpeedups(rec *Record) {
	byName := make(map[string]*Row, len(rec.Rows))
	for i := range rec.Rows {
		byName[rec.Rows[i].Name] = &rec.Rows[i]
	}
	for i := range rec.Rows {
		row := &rec.Rows[i]
		base, ok := byName[strings.TrimSuffix(row.Name, "Shards")]
		if !strings.HasSuffix(row.Name, "Shards") || !ok || base.NsPerOp <= 0 || row.NsPerOp <= 0 {
			continue
		}
		if row.Metrics == nil {
			row.Metrics = map[string]float64{}
		}
		row.Metrics[speedupMetric] = base.NsPerOp / row.NsPerOp
	}
}

func main() {
	var (
		delta         = flag.Bool("delta", false, "diff two recorded runs: benchjson -delta OLD.json NEW.json")
		maxRegress    = flag.Float64("max-regress", 10, "with -delta: fail on ns/op regressions above this percent")
		maxMemRegress = flag.Float64("max-mem-regress", 10, "with -delta: fail on bytes/op regressions above this percent")
		minMerge      = flag.Bool("min", false, "merge runs by per-benchmark minimum: benchjson -min RUN.json... (noise-robust wall-clock estimate)")
	)
	flag.Parse()
	if *delta {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -delta OLD.json NEW.json")
			os.Exit(2)
		}
		os.Exit(diffRecords(os.Stdout, flag.Arg(0), flag.Arg(1), *maxRegress, *maxMemRegress))
	}
	if *minMerge {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -min RUN.json...")
			os.Exit(2)
		}
		mergeMin(flag.Args())
		return
	}

	rec := Record{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rec.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rec.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rec.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if row, ok := parseRow(line); ok {
				rec.Rows = append(rec.Rows, row)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(rec.Rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	attachSpeedups(&rec)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
}

// diffRecords prints per-benchmark ns/op, bytes/op, and allocs/op deltas
// between two recorded runs and returns the process exit code: 1 when any
// benchmark present in both runs regressed ns/op by more than maxRegress
// percent or bytes/op by more than maxMemRegress percent, 0 otherwise.
// Memory regressions gate like time regressions because the streaming
// collectors made per-run allocation a design invariant (O(shards), not
// O(flows)) — per-flow state creeping back in shows up here first.
// Benchmarks present in only one file are listed but never fail the
// check — adding or retiring a preset is not a regression. Neither does a
// drop of the derived speedup: the sharded row's own ns/op is gated above,
// and serial ns/op ÷ sharded ns/op falls by construction whenever a
// change speeds up the serial path more than the sharded one.
func diffRecords(w io.Writer, oldPath, newPath string, maxRegress, maxMemRegress float64) int {
	load := func(path string) Record {
		buf, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		var r Record
		if err := json.Unmarshal(buf, &r); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
			os.Exit(2)
		}
		return r
	}
	oldRec, newRec := load(oldPath), load(newPath)
	oldBy := make(map[string]Row, len(oldRec.Rows))
	for _, r := range oldRec.Rows {
		oldBy[r.Name] = r
	}

	pct := func(oldV, newV float64) float64 { return (newV/oldV - 1) * 100 }
	fmt.Fprintf(w, "%-26s %15s %15s %8s %8s %10s %9s\n", "benchmark", "old ns/op", "new ns/op", "ns Δ%", "B/op Δ%", "allocs Δ%", "speedup")
	failed := false
	for _, nr := range newRec.Rows {
		or, ok := oldBy[nr.Name]
		delete(oldBy, nr.Name)
		if !ok {
			fmt.Fprintf(w, "%-26s %15s %15.0f %8s %8s %10s %9s  (new)\n", nr.Name, "-", nr.NsPerOp, "-", "-", "-", "-")
			continue
		}
		nsDelta, memDelta, allocDelta, spCol := "-", "-", "-", "-"
		regressed := false
		if or.NsPerOp > 0 && nr.NsPerOp > 0 {
			d := pct(or.NsPerOp, nr.NsPerOp)
			nsDelta = fmt.Sprintf("%+.1f", d)
			regressed = d > maxRegress
		}
		if or.BytesPerOp > 0 && nr.BytesPerOp > 0 {
			d := pct(or.BytesPerOp, nr.BytesPerOp)
			memDelta = fmt.Sprintf("%+.1f", d)
			regressed = regressed || d > maxMemRegress
		}
		if or.AllocsPerOp > 0 && nr.AllocsPerOp > 0 {
			allocDelta = fmt.Sprintf("%+.1f", pct(or.AllocsPerOp, nr.AllocsPerOp))
		}
		if oldSp, newSp := or.Metrics[speedupMetric], nr.Metrics[speedupMetric]; oldSp > 0 && newSp > 0 {
			spCol = fmt.Sprintf("%.2fx%+.1f%%", newSp, pct(oldSp, newSp))
		}
		mark := ""
		if regressed {
			mark = "  REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-26s %15.0f %15.0f %8s %8s %10s %9s%s\n", nr.Name, or.NsPerOp, nr.NsPerOp, nsDelta, memDelta, allocDelta, spCol, mark)
	}
	for _, name := range slices.Sorted(maps.Keys(oldBy)) {
		fmt.Fprintf(w, "%-26s  (removed)\n", name)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchjson: ns/op (>%.0f%%) or bytes/op (>%.0f%%) regression between %s and %s\n",
			maxRegress, maxMemRegress, oldPath, newPath)
		return 1
	}
	return 0
}

// mergeMin combines several recorded runs of the same suite into one
// record taking, per benchmark, the run with the lowest ns/op (its other
// columns and metrics ride along). Each run is a full deterministic
// experiment, so wall-clock differences between repeats are scheduler and
// neighbor noise — the minimum is the standard noise-robust estimate.
// scripts/bench.sh uses this when BENCH_RUNS > 1.
func mergeMin(paths []string) {
	var out Record
	best := map[string]int{} // name → index into out.Rows
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		var rec Record
		if err := json.Unmarshal(buf, &rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
			os.Exit(2)
		}
		if out.Rows == nil {
			out = Record{GoOS: rec.GoOS, GoArch: rec.GoArch, Pkg: rec.Pkg, CPU: rec.CPU}
		}
		for _, row := range rec.Rows {
			if i, ok := best[row.Name]; ok {
				if row.NsPerOp < out.Rows[i].NsPerOp {
					out.Rows[i] = row
				}
				continue
			}
			best[row.Name] = len(out.Rows)
			out.Rows = append(out.Rows, row)
		}
	}
	attachSpeedups(&out)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
}

// parseRow decodes one result line: name, iteration count, then
// (value, unit) pairs.
func parseRow(line string) (Row, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Row{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Row{}, false
	}
	row := Row{
		Name:       gomaxprocsSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), ""),
		Iterations: iters,
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			row.NsPerOp = v
		case "B/op":
			row.BytesPerOp = v
		case "allocs/op":
			row.AllocsPerOp = v
		default:
			if row.Metrics == nil {
				row.Metrics = map[string]float64{}
			}
			row.Metrics[unit] = v
		}
	}
	return row, true
}
