package exp

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"sort"

	"github.com/irnsim/irn/internal/metrics"
)

// Row is one persisted result: the headline metrics of a single
// scenario/trial run, keyed by experiment id + scenario label + seed (plus
// a configuration fingerprint, so runs of the same label under different
// knobs — scale, transport, load — never overwrite each other) so runs
// from different invocations (or machines) can be merged and compared
// without re-simulating.
type Row struct {
	Exp   string `json:"exp"`
	Name  string `json:"name"`
	Seed  uint64 `json:"seed"`
	Trial int    `json:"trial"`
	// Cfg fingerprints the full normalized Scenario.
	Cfg string `json:"cfg"`

	Flows       int     `json:"flows"`
	Incomplete  int     `json:"incomplete"`
	AvgSlowdown float64 `json:"avg_slowdown"`
	AvgFCTms    float64 `json:"avg_fct_ms"`
	P99FCTms    float64 `json:"p99_fct_ms"`
	// Quantile columns beyond p99 (schema v2; absent in v0/v1 rows).
	P50FCTms  float64 `json:"p50_fct_ms,omitempty"`
	P90FCTms  float64 `json:"p90_fct_ms,omitempty"`
	P999FCTms float64 `json:"p999_fct_ms,omitempty"`
	RCTms     float64 `json:"rct_ms,omitempty"`
	// FCTSketch persists the full streaming histogram (schema v2), so
	// any quantile — not just the flattened columns — can be re-read
	// from a saved store, and sketches from sharded reruns can be
	// compared bucket for bucket.
	FCTSketch   *metrics.Histogram `json:"fct_sketch,omitempty"`
	Drops       uint64             `json:"drops"`
	FaultDrops  uint64             `json:"fault_drops,omitempty"`
	Corrupted   uint64             `json:"corrupted,omitempty"`
	PauseFrames uint64             `json:"pause_frames"`
	ECNMarked   uint64             `json:"ecn_marked"`
	Retransmits uint64             `json:"retransmits"`
	Timeouts    uint64             `json:"timeouts"`
	// Events is Result.Events: engine events executed, a cost counter.
	Events uint64 `json:"events"`
	// KV columns (schema v2), present only on replicated-KV rows.
	KVAvail       float64 `json:"kv_avail,omitempty"`
	KVCommitP50ms float64 `json:"kv_commit_p50_ms,omitempty"`
	KVCommitP99ms float64 `json:"kv_commit_p99_ms,omitempty"`
	KVRetries     uint64  `json:"kv_retries,omitempty"`
	KVGiveUps     uint64  `json:"kv_giveups,omitempty"`
	KVDegraded    uint64  `json:"kv_degraded,omitempty"`
	KVReadOnly    uint64  `json:"kv_readonly,omitempty"`
}

// Key identifies a row within a store.
func (r Row) Key() string {
	return fmt.Sprintf("%s/%s/%d/%d/%s", r.Exp, r.Name, r.Seed, r.Trial, r.Cfg)
}

// Fingerprint hashes a scenario's full normalized configuration (FNV-1a
// over its JSON form, which covers every knob — they are all exported
// plain fields) into a short stable token for row keys.
func Fingerprint(s Scenario) string {
	n := s.normalize()
	// Intra-run sharding is a wall-clock knob with bit-identical results
	// (the determinism tests pin it), so it is not part of a result's
	// configuration identity: a sharded rerun must land on — and compare
	// against — the serial run's row.
	n.Shards = 0
	data, err := json.Marshal(n)
	if err != nil {
		// Scenario is a plain struct; Marshal cannot fail on it.
		panic(err)
	}
	h := fnv.New64a()
	h.Write(data)
	sum := h.Sum64()
	return fmt.Sprintf("%08x", uint32(sum)^uint32(sum>>32))
}

// RowFromResult flattens a Result into its persisted form.
func RowFromResult(expID string, trial int, res Result) Row {
	row := Row{
		Exp:         expID,
		Name:        res.Name,
		Seed:        res.Scenario.normalize().Seed,
		Trial:       trial,
		Cfg:         Fingerprint(res.Scenario),
		Flows:       res.Summary.Flows,
		Incomplete:  res.Summary.Incomplete,
		AvgSlowdown: res.AvgSlowdown,
		AvgFCTms:    res.AvgFCT.Millis(),
		P99FCTms:    res.TailFCT.Millis(),
		P50FCTms:    res.Summary.P50FCT.Millis(),
		P90FCTms:    res.Summary.P90FCT.Millis(),
		P999FCTms:   res.Summary.P999FCT.Millis(),
		RCTms:       res.RCT.Millis(),
		FCTSketch:   res.FCTSketch,
		Drops:       res.Net.Drops,
		FaultDrops:  res.Net.FaultDrops,
		Corrupted:   res.Net.Corrupted,
		PauseFrames: res.Net.PauseFrames,
		ECNMarked:   res.Net.ECNMarked,
		Retransmits: res.Retransmits,
		Timeouts:    res.Timeouts,
		Events:      res.Events,
	}
	if k := res.KV; k != nil {
		row.KVAvail = k.Availability
		row.KVCommitP50ms = k.CommitP50.Millis()
		row.KVCommitP99ms = k.CommitP99.Millis()
		row.KVRetries = k.Retries
		row.KVGiveUps = k.GiveUps
		row.KVDegraded = k.DegradedEnters
		row.KVReadOnly = k.ReadOnly
	}
	return row
}

// Store holds result rows indexed by key. The zero value is usable.
type Store struct {
	rows map[string]Row
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{rows: map[string]Row{}} }

// Put inserts a row, replacing any existing row with the same key.
func (st *Store) Put(r Row) {
	if st.rows == nil {
		st.rows = map[string]Row{}
	}
	st.rows[r.Key()] = r
}

// PutFleet inserts every trial of a fleet run.
func (st *Store) PutFleet(fr FleetResult) {
	for _, trials := range fr.Trials {
		for t, res := range trials {
			st.Put(RowFromResult(fr.ExpID, t, res))
		}
	}
}

// Len returns the number of rows.
func (st *Store) Len() int { return len(st.rows) }

// Rows returns every row sorted by key — the stable order used for
// persistence and diffing.
func (st *Store) Rows() []Row {
	out := make([]Row, 0, len(st.rows))
	for _, r := range st.rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Merge copies every row of other into st (other wins on key collisions)
// and returns how many rows were added or replaced.
func (st *Store) Merge(other *Store) int {
	n := 0
	for _, r := range other.Rows() {
		st.Put(r)
		n++
	}
	return n
}

// Restrict returns the subset of st whose keys also appear in other.
// Diffing a full saved suite against a partial rerun goes through this,
// so rows the rerun never touched don't flood the report.
func (st *Store) Restrict(other *Store) *Store {
	sub := NewStore()
	for _, r := range st.Rows() {
		if _, ok := other.rows[r.Key()]; ok {
			sub.Put(r)
		}
	}
	return sub
}

// storeVersion is the current on-disk schema. v2 added the quantile
// columns and the persisted FCT sketch; v0/v1 rows (no version field, or
// version 1) load unchanged with those fields simply absent.
const storeVersion = 2

// storeFile is the on-disk JSON envelope.
type storeFile struct {
	Version int   `json:"version,omitempty"`
	Rows    []Row `json:"rows"`
}

// Save writes the store as indented JSON with rows in key order, so
// reruns of identical experiments produce byte-identical files.
func (st *Store) Save(path string) error {
	data, err := json.MarshalIndent(storeFile{Version: storeVersion, Rows: st.Rows()}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadStore reads a store written by Save.
func LoadStore(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f storeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("exp: parsing %s: %w", path, err)
	}
	if f.Version > storeVersion {
		return nil, fmt.Errorf("exp: %s is store schema v%d, this build reads ≤ v%d", path, f.Version, storeVersion)
	}
	st := NewStore()
	for _, r := range f.Rows {
		st.Put(r)
	}
	return st, nil
}

// LoadOrNewStore reads an existing store, or returns an empty one when
// the file does not exist yet (the first -out run of a sweep).
func LoadOrNewStore(path string) (*Store, error) {
	st, err := LoadStore(path)
	if os.IsNotExist(err) {
		return NewStore(), nil
	}
	return st, err
}

// SaveMerged merges st into the store persisted at path (creating it if
// absent) and returns the total row count — the CLIs' -out behavior.
func (st *Store) SaveMerged(path string) (int, error) {
	merged, err := LoadOrNewStore(path)
	if err != nil {
		return 0, err
	}
	merged.Merge(st)
	if err := merged.Save(path); err != nil {
		return 0, err
	}
	return merged.Len(), nil
}

// Diff compares two stores row by row and returns one human-readable
// line per difference: rows present on only one side, and rows whose
// metrics moved. An empty slice means the stores agree — the determinism
// check `save → load → diff` relies on this.
func Diff(a, b *Store) []string {
	var out []string
	seen := map[string]bool{}
	for _, ra := range a.Rows() {
		seen[ra.Key()] = true
		rb, ok := b.rows[ra.Key()]
		if !ok {
			out = append(out, fmt.Sprintf("- %s (only in first)", ra.Key()))
			continue
		}
		out = append(out, diffRow(ra, rb)...)
	}
	for _, rb := range b.Rows() {
		if !seen[rb.Key()] {
			out = append(out, fmt.Sprintf("+ %s (only in second)", rb.Key()))
		}
	}
	return out
}

// diffRow lists the metric deltas between two rows with the same key.
func diffRow(a, b Row) []string {
	var out []string
	numeric := func(field string, va, vb float64) {
		if va == vb || (math.IsNaN(va) && math.IsNaN(vb)) {
			return
		}
		out = append(out, fmt.Sprintf("~ %s %s: %g -> %g", a.Key(), field, va, vb))
	}
	numeric("flows", float64(a.Flows), float64(b.Flows))
	numeric("incomplete", float64(a.Incomplete), float64(b.Incomplete))
	numeric("avg_slowdown", a.AvgSlowdown, b.AvgSlowdown)
	numeric("avg_fct_ms", a.AvgFCTms, b.AvgFCTms)
	numeric("p99_fct_ms", a.P99FCTms, b.P99FCTms)
	numeric("p50_fct_ms", a.P50FCTms, b.P50FCTms)
	numeric("p90_fct_ms", a.P90FCTms, b.P90FCTms)
	numeric("p999_fct_ms", a.P999FCTms, b.P999FCTms)
	numeric("rct_ms", a.RCTms, b.RCTms)
	if !reflect.DeepEqual(a.FCTSketch, b.FCTSketch) {
		out = append(out, fmt.Sprintf("~ %s fct_sketch: bucket counts differ", a.Key()))
	}
	numeric("drops", float64(a.Drops), float64(b.Drops))
	numeric("fault_drops", float64(a.FaultDrops), float64(b.FaultDrops))
	numeric("corrupted", float64(a.Corrupted), float64(b.Corrupted))
	numeric("pause_frames", float64(a.PauseFrames), float64(b.PauseFrames))
	numeric("ecn_marked", float64(a.ECNMarked), float64(b.ECNMarked))
	numeric("retransmits", float64(a.Retransmits), float64(b.Retransmits))
	numeric("timeouts", float64(a.Timeouts), float64(b.Timeouts))
	numeric("events", float64(a.Events), float64(b.Events))
	numeric("kv_avail", a.KVAvail, b.KVAvail)
	numeric("kv_commit_p50_ms", a.KVCommitP50ms, b.KVCommitP50ms)
	numeric("kv_commit_p99_ms", a.KVCommitP99ms, b.KVCommitP99ms)
	numeric("kv_retries", float64(a.KVRetries), float64(b.KVRetries))
	numeric("kv_giveups", float64(a.KVGiveUps), float64(b.KVGiveUps))
	numeric("kv_degraded", float64(a.KVDegraded), float64(b.KVDegraded))
	numeric("kv_readonly", float64(a.KVReadOnly), float64(b.KVReadOnly))
	return out
}
