package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds one measuring process; the largest takes ~10 s.
const childTimeout = 150 * time.Second

// spawn runs one measuring process of w — this same executable with
// -child — waits for it, and returns its report. A fresh process per
// measurement is what makes setup_s a cold set-up and peak_rss_mb the
// footprint of exactly one set-up plus one run.
func spawn(o options, w workload, shards int) (runReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return runReport{}, fmt.Errorf("locate own executable: %w", err)
	}
	args := []string{"-child", "-workload", w.Name, "-seed", strconv.FormatUint(o.seed, 10), "-shards", strconv.Itoa(shards)}
	if o.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return runReport{}, fmt.Errorf("measuring process for %s: %w", w.Name, err)
	}
	var rep runReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return runReport{}, fmt.Errorf("measuring process for %s: bad report: %w", w.Name, err)
	}
	return rep, nil
}

// stat is one metric over the repetitions of a workload.
type stat struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better,omitempty"`
	Bound  float64   `json:"bound,omitempty"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStat(unit, better string, bound float64, values []float64) stat {
	s := stat{Unit: unit, Better: better, Bound: bound, Median: median(values), N: len(values), Values: values}
	s.Q1, s.Q3 = quartiles(values)
	s.Min, s.Max = values[0], values[0]
	for _, v := range values {
		s.Min, s.Max = min(s.Min, v), max(s.Max, v)
	}
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the rule the benchmark's driver
// judges spreads by). Fewer than two values have no spread.
func quartiles(values []float64) (q1, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		return v[0], v[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func (s stat) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// e2eValue reads end-to-end metric name off one child's report.
func e2eValue(name string, r runReport) float64 {
	switch name {
	case "wall_s":
		return r.WallS
	case "sim_mpkts_per_s":
		return r.mpktsPerS()
	case "allocs_per_op":
		return r.allocsPerOp()
	case "peak_rss_mb":
		return r.PeakRSSMB
	case "setup_s":
		return r.SetupS
	}
	panic("benchmark: unknown end-to-end metric " + name)
}

// endToEnd folds the children of one workload into its metric table.
func endToEnd(reps []runReport) map[string]stat {
	out := map[string]stat{}
	for _, m := range e2eMetrics {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = e2eValue(m.Name, r)
		}
		out[m.Name] = newStat(m.Unit, m.Better, m.Bound, vals)
	}
	return out
}

// crossCheck returns the violations of a workload's repetitions: each
// child's own, plus any disagreement on the simulated statistics.
func crossCheck(reps []runReport) []string {
	var v []string
	for i, r := range reps {
		for _, msg := range r.Violations {
			v = append(v, fmt.Sprintf("%s rep %d: %s", r.Workload, i+1, msg))
		}
		if r.Digest != reps[0].Digest {
			v = append(v, fmt.Sprintf("%s rep %d: sim_digest %s differs from rep 1's %s", r.Workload, i+1, r.Digest, reps[0].Digest))
		}
	}
	return v
}

// value is one per-layer number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the declared units to measured per-layer values and
// fails if a declared metric was not measured.
func withUnits(defs []layerMetric, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		out[d.Name] = value{v, d.Unit}
	}
	return out, nil
}

// ---- manifest ----

// manifest says exactly what produced a result.
type manifest struct {
	GitRevision string         `json:"git_revision"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NProc       int            `json:"nproc"`
	CPUModel    string         `json:"cpu_model"`
	Seed        uint64         `json:"seed"`
	Reps        int            `json:"repetitions"`
	Quick       bool           `json:"quick,omitempty"`
	Sizes       map[string]int `json:"ops_per_workload"`
	Load        string         `json:"load"`
}

func newManifest(o options, ws []workload, reps int) manifest {
	m := manifest{
		GitRevision: "unknown",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		CPUModel:    "unknown",
		Seed:        o.seed,
		Reps:        reps,
		Quick:       o.quick,
		Sizes:       map[string]int{},
		Load:        "deterministic batch simulator: one generator process, serial engine; work completed per host second at a stated input size",
	}
	// Outside a git work tree (the driver's checkout) the revision stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitRevision = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	for _, w := range ws {
		m.Sizes[w.Name] = w.Ops(o.seed) / o.div()
	}
	return m
}

// workloadReport is one workload's section of a full report.
type workloadReport struct {
	Name     string          `json:"name"`
	Why      string          `json:"why"`
	Size     string          `json:"size"`
	Ops      int             `json:"ops_attempted"`
	Failed   int             `json:"ops_failed"`
	Digest   string          `json:"sim_digest"`
	Sim      simSummary      `json:"sim"`
	EndToEnd map[string]stat `json:"end_to_end"`
	// Trace is the traced run's per-layer metrics (absent under -no-trace).
	Trace            map[string]value `json:"per_layer_trace,omitempty"`
	ProbeDigestMatch *bool            `json:"probe_digest_match,omitempty"`
	SpanFile         string           `json:"span_file,omitempty"`
}

// ledgerRow is one ledger metric with the end-to-end metric and workload
// it is expected to move.
type ledgerRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"moves"`
}

// shardProbe is the report-only answer to "does sharding pay on this box":
// dc_irn at Shards:2 against the serial runs of the same report.
type shardProbe struct {
	Workload         string  `json:"workload"`
	Shards           int     `json:"shards"`
	WallS            stat    `json:"wall_s"`
	Speedup2         float64 `json:"shard.speedup_2"`
	Barriers         uint64  `json:"shard.barriers"`
	WideWindows      uint64  `json:"shard.wide_windows"`
	BarrierWaitShare float64 `json:"shard.barrier_wait_share"`
	Note             string  `json:"note"`
}

// report is the full report. Claim is last and null: this benchmark
// defines names; it claims no gain.
type report struct {
	Manifest   manifest         `json:"manifest"`
	Workloads  []workloadReport `json:"workloads"`
	Ledger     []ledgerRow      `json:"per_layer_ledger,omitempty"`
	ShardProbe *shardProbe      `json:"shard_probe,omitempty"`
	Checks     string           `json:"checks"`
	Violations []string         `json:"violations,omitempty"`
	Claim      *string          `json:"claim"`
}

const shardProbeRuns = 3

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// fullReport runs the whole protocol: -reps children per workload,
// interleaved round-robin so drift on the box spreads over all workloads
// alike; then the ledger, a traced run per workload and the sharding probe.
func fullReport(o options) error {
	ws, err := o.selected()
	if err != nil {
		return err
	}
	if o.reps < 1 {
		return errors.New("-reps must be at least 1")
	}
	rep := report{Manifest: newManifest(o, ws, o.reps)}
	runs := make([][]runReport, len(ws))
	for r := 0; r < o.reps; r++ {
		for i, w := range ws {
			progress("%s rep %d/%d", w.Name, r+1, o.reps)
			child, err := spawn(o, w, 1)
			if err != nil {
				return err
			}
			runs[i] = append(runs[i], child)
		}
	}
	for i, w := range ws {
		rep.Violations = append(rep.Violations, crossCheck(runs[i])...)
		first := runs[i][0]
		rep.Workloads = append(rep.Workloads, workloadReport{
			Name: w.Name, Why: w.Why, Size: w.Size,
			Ops: first.Ops, Failed: first.Failed, Digest: first.Digest, Sim: first.Sim,
			EndToEnd: endToEnd(runs[i]),
		})
	}

	if !o.noTrace {
		progress("per-layer ledger")
		led := runLedger(o.div())
		for _, d := range ledgerMetrics {
			v, ok := led[d.Name]
			if !ok {
				return fmt.Errorf("ledger metric %s was not measured", d.Name)
			}
			rep.Ledger = append(rep.Ledger, ledgerRow{d.Name, v, d.Unit, d.Moves})
		}
		for i, w := range ws {
			progress("%s traced run", w.Name)
			// The untraced reference is the workload's median child.
			ref := runs[i][0]
			ref.WallS = rep.Workloads[i].EndToEnd["wall_s"].Median
			tr, err := traceRun(w, ref, o.div(), led["sim.sched_pop_ns"], o.outDir)
			if err != nil {
				return err
			}
			for _, msg := range tr.Violations {
				rep.Violations = append(rep.Violations, w.Name+" traced run: "+msg)
			}
			wr := &rep.Workloads[i]
			if wr.Trace, err = withUnits(traceMetrics, tr.Metrics); err != nil {
				return err
			}
			wr.ProbeDigestMatch, wr.SpanFile = &tr.DigestMatch, tr.SpanFile
		}
		for i, w := range ws {
			if w.ShardProbe {
				if rep.ShardProbe, err = runShardProbe(o, w, rep.Workloads[i], &rep.Violations); err != nil {
					return err
				}
			}
		}
	}

	rep.Checks = "ok"
	if len(rep.Violations) > 0 {
		rep.Checks = "violated"
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("output checks failed: %s", strings.Join(rep.Violations, "; "))
	}
	return nil
}

// runShardProbe measures w at Shards:2 in fresh processes and compares
// with the serial children. Report only: on a shared two-core box the
// sharded wall-clock does not repeat within a tenth, so nothing gates on
// it — except the digest, which must equal the serial run's.
func runShardProbe(o options, w workload, serial workloadReport, violations *[]string) (*shardProbe, error) {
	var walls []float64
	var last runReport
	for r := 0; r < shardProbeRuns; r++ {
		progress("%s sharding probe %d/%d", w.Name, r+1, shardProbeRuns)
		child, err := spawn(o, w, 2)
		if err != nil {
			return nil, err
		}
		if child.Digest != serial.Digest {
			*violations = append(*violations, fmt.Sprintf("%s at 2 shards: sim_digest %s differs from serial %s", w.Name, child.Digest, serial.Digest))
		}
		walls = append(walls, child.WallS)
		last = child
	}
	sp := &shardProbe{
		Workload:    w.Name,
		Shards:      2,
		WallS:       newStat("s", "lower", 0, walls),
		Barriers:    last.Barriers,
		WideWindows: last.WideWindows,
		Note:        "report only, not gated: answers ROADMAP item 1's sharding question for this box",
	}
	sp.Speedup2 = serial.EndToEnd["wall_s"].Median / sp.WallS.Median
	sp.BarrierWaitShare = float64(last.BarrierWaitNs) / 1e9 / (2 * last.WallS)
	return sp, nil
}
