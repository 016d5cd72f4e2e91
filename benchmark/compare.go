package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func loadReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Verdicts of compareStat.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// compareStat judges b against a under a's bound and returns the share of
// a's median by which b's median is worse. Regression: worse by more than
// the bound. Unresolved: either set's own spread (quartile distance) is
// wider than the bound, so the two cannot be told apart at that resolution
// — unless every run of b reads better than every run of a.
func compareStat(a, b stat) (worse float64, verdict string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
	}
	allBetter := b.Max < a.Min
	if a.Better == "higher" {
		worse = -worse
		allBetter = b.Min > a.Max
	}
	switch {
	case worse > a.Bound:
		return worse, verdictRegression
	case max(a.spread(), b.spread()) > a.Bound && !allBetter:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compareReports prints, per (workload, end-to-end metric), b's median
// against a's with compareStat's verdict, and per workload whether
// sim_digest and ops_failed — which repeat exactly — agree.
func compareReports(pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Printf("a: %s  rev %s  seed %d  n=%d\nb: %s  rev %s  seed %d  n=%d\n\n",
		pathA, a.Manifest.GitRevision, a.Manifest.Seed, a.Manifest.Reps,
		pathB, b.Manifest.GitRevision, b.Manifest.Seed, b.Manifest.Reps)
	fmt.Printf("%-14s %-16s %12s %12s %8s %7s %9s %9s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "a spread", "b spread", "verdict")
	regressions, unresolved := 0, 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		names := make([]string, 0, len(wa.EndToEnd))
		for name := range wa.EndToEnd {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sa, sb := wa.EndToEnd[name], wb.EndToEnd[name]
			d, verdict := compareStat(sa, sb)
			switch verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f %+7.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n", wa.Name, name, sa.Median, sb.Median, 100*d, 100*sa.Bound, 100*sa.spread(), 100*sb.spread(), verdict)
		}
		same := func(ok bool) string {
			if ok {
				return "identical"
			}
			return "DIFFERENT"
		}
		fmt.Printf("%-14s sim_digest %s / %s: %s; ops_failed %d / %d\n\n", wa.Name, wa.Digest, wb.Digest, same(wa.Digest == wb.Digest), wa.Failed, wb.Failed)
	}
	fmt.Printf("%d regression(s), %d unresolved pair(s)\n", regressions, unresolved)
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}
