package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
)

// driverResult is the object a driver run prints as its last line.
type driverResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// minChildren is the fewest measuring processes a driver run takes its
// medians over, however short -seconds is.
const minChildren = 3

// driverRun is one run under the BENCHMARK.json contract. With -trace 0 it
// starts measuring processes of the workload, one after another, until
// -seconds have passed, and reports each end-to-end metric's median over
// them. With -trace 1 it runs the ledger, one untraced and one traced run,
// and reports every per-layer metric. Details go out first; the last line
// is the result object.
func driverRun(o options) error {
	if o.workload == "" {
		return errors.New("a driver run needs -workload")
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	res := driverResult{Metrics: map[string]value{}}
	details := map[string]any{"workload": w.Name, "why": w.Why, "size": w.Size}
	var violations []string

	if o.trace == 0 {
		start := time.Now()
		var reps []runReport
		for len(reps) < minChildren || time.Since(start) < time.Duration(o.seconds)*time.Second {
			rep, err := spawn(o, w, 1)
			if err != nil {
				return err
			}
			reps = append(reps, rep)
			res.Attempted += rep.Ops
			res.Failed += rep.Failed
		}
		violations = crossCheck(reps)
		e2e := endToEnd(reps)
		for name, s := range e2e {
			res.Metrics[name] = value{s.Median, s.Unit}
		}
		details["manifest"] = newManifest(o, []workload{w}, len(reps))
		details["end_to_end"] = e2e
		details["sim_digest"] = reps[0].Digest
		details["sim"] = reps[0].Sim
	} else {
		led := runLedger(o.div())
		ref := measure(w, o.seed, o.div(), 1)
		tr, err := traceRun(w, ref, o.div(), led["sim.sched_pop_ns"], o.outDir)
		if err != nil {
			return err
		}
		violations = append(ref.Violations, tr.Violations...)
		res.Attempted, res.Failed = ref.Ops, ref.Failed
		for k, v := range tr.Metrics {
			led[k] = v
		}
		if res.Metrics, err = withUnits(perLayerMetrics(), led); err != nil {
			return err
		}
		details["manifest"] = newManifest(o, []workload{w}, 1)
		details["sim_digest"] = ref.Digest
		details["sim"] = ref.Sim
		details["probe_digest_match"] = tr.DigestMatch
		details["span_file"] = tr.SpanFile
		details["spans"] = tr.Spans
	}
	res.Correct = len(violations) == 0
	details["violations"] = violations

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(details); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("output checks failed: %s", strings.Join(violations, "; "))
	}
	return nil
}
