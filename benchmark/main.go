// Command benchmark is the repository's benchmark: four host-time
// workloads through exp.Worker.Run, a per-layer cost ledger, and one traced
// run per workload that attributes the wall-clock to layers. README.md in
// this directory defines every name it prints.
//
// Modes:
//
//	(no mode flag)                        full report: every workload × -reps
//	                                      children, ledger, traced runs,
//	                                      sharding probe; JSON on stdout
//	-workload W -seconds S -trace 0|1     one driver run (BENCHMARK.json
//	                                      contract): last stdout line is the
//	                                      result object
//	-compare a.json b.json                compare two full reports
//	-child                                one measuring process (internal)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// maxProcs is pinned so a run means the same thing on every box: one
// generator process, serial engine, one spare thread for the collector.
const maxProcs = 2

type options struct {
	workload string
	reps     int
	seed     uint64
	noTrace  bool
	quick    bool
	outDir   string
	seconds  int
	trace    int
	shards   int
}

// div is the size divisor in force.
func (o options) div() int {
	if o.quick {
		return quickDivisor
	}
	return 1
}

// selected returns the workloads -workload names (all when empty).
func (o options) selected() ([]workload, error) {
	if o.workload == "" {
		return workloads, nil
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	return []workload{w}, nil
}

func main() {
	runtime.GOMAXPROCS(maxProcs)
	var o options
	var child, compare bool
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.IntVar(&o.reps, "reps", 5, "measuring processes per workload in a full report")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for Scenario.Seed and the chaos suite")
	flag.BoolVar(&o.noTrace, "no-trace", false, "full report: skip the ledger and the traced runs")
	flag.BoolVar(&o.quick, "quick", false, "run every workload and micro-driver at 1/20 size (package test only; numbers are not comparable)")
	flag.StringVar(&o.outDir, "out-dir", "out", "directory for trace-<workload>.jsonl span files")
	flag.IntVar(&o.seconds, "seconds", 0, "driver run: keep starting measuring processes until this much time has passed")
	flag.IntVar(&o.trace, "trace", -1, "driver run: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&compare, "compare", false, "compare two full reports: -compare a.json b.json")
	flag.BoolVar(&child, "child", false, "internal: one measuring process; prints its report as JSON")
	flag.IntVar(&o.shards, "shards", 1, "internal: Scenario.Shards of a measuring process")
	flag.Parse()

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files, got %d", flag.NArg())
		} else {
			err = compareReports(flag.Arg(0), flag.Arg(1))
		}
	case flag.NArg() != 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case child:
		err = childMain(o)
	case o.trace >= 0:
		err = driverRun(o)
	default:
		err = fullReport(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// childMain is one measuring process.
func childMain(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(measure(w, o.seed, o.div(), o.shards))
}
