package exp

import (
	"reflect"
	"strings"
	"testing"
)

// TestLookaheadDifferentialAcrossPresets pins the widened-lookahead
// safety argument end to end: for every fig* preset and every shard
// count its scenarios run at, forcing the windows back to the bare
// link-propagation width
// (runOpts.bareLookahead) produces Results bit-identical to the widened runs —
// metrics, event counts, census, pool accounting, everything. Wider
// windows may only change how the executed events are grouped into
// barriers, never which events execute or in what canonical order.
func TestLookaheadDifferentialAcrossPresets(t *testing.T) {
	sc := shardScale()
	for _, e := range All(sc) {
		if !strings.HasPrefix(e.ID, "fig") {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for _, s := range e.Scenarios {
				for _, shards := range []int{1, 2, 4} {
					if shards > 1 && serialOnly(s) {
						continue
					}
					wide := s
					wide.Shards = shards
					ref := stripShards(Run(wide))
					got := stripShards(NewWorker().run(wide, runOpts{bareLookahead: true}))
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s at %d shards: bare lookahead diverged from widened:\nwidened: %+v\nbare:    %+v",
							s.Name, shards, ref, got)
					}
				}
			}
		})
	}
}
