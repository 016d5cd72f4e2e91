package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/sim"
)

// simOut is every simulated statistic one run produces, whether it came
// from exp.Worker.Run or from the benchmark's probe launcher. The exported
// JSON fields are what sim_digest hashes; the json:"-" fields feed only the
// conservation checks.
type simOut struct {
	Events      uint64
	SimTime     sim.Time
	Census      fabric.Census
	Net         fabric.Stats
	Retransmits uint64
	Timeouts    uint64
	Summary     metrics.Summary
	FCTSketch   *metrics.Histogram
	KV          *kv.Report

	InFlight    int `json:"-"`
	PoolLive    int `json:"-"`
	CtrlBacklog int `json:"-"`
}

func simOutOf(r exp.Result) simOut {
	return simOut{
		Events:      r.Events,
		SimTime:     r.SimTime,
		Census:      r.Census,
		Net:         r.Net,
		Retransmits: r.Retransmits,
		Timeouts:    r.Timeouts,
		Summary:     r.Summary,
		FCTSketch:   r.FCTSketch,
		KV:          r.KV,
		InFlight:    r.InFlight,
		PoolLive:    r.PoolLive,
		CtrlBacklog: r.CtrlBacklog,
	}
}

// digest hashes the simulated statistics. It is printed, not pinned: a
// speed-only change must leave it identical to its parent's, a modelling
// change moves it and has to say so.
func (o simOut) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(fmt.Sprintf("benchmark: digest: %v", err)) // plain data; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// failed counts operations that did not succeed: flows incomplete at
// Grace; KV requests unresolved, given up or rejected read-only.
func (o simOut) failed() int {
	if o.KV != nil {
		return int(o.KV.Issued-o.KV.Resolved) + int(o.KV.GiveUps) + int(o.KV.ReadOnly)
	}
	return o.Summary.Incomplete
}

// completed counts operations that succeeded.
func (o simOut) completed() int {
	if o.KV != nil {
		return int(o.KV.Committed + o.KV.GetsOK)
	}
	return o.Summary.Flows
}

// check returns the output-check violations of one run of w at ops
// operations; empty means the run is correct.
func (o simOut) check(w workload, ops int) []string {
	var v []string
	if exits := o.Census.Exits(); o.Census.Injected != exits+uint64(o.InFlight) {
		v = append(v, fmt.Sprintf("census: injected %d != exits %d + in-flight %d", o.Census.Injected, exits, o.InFlight))
	}
	if o.PoolLive != o.InFlight+o.CtrlBacklog {
		v = append(v, fmt.Sprintf("pool: live %d != in-flight %d + ctrl backlog %d", o.PoolLive, o.InFlight, o.CtrlBacklog))
	}
	if w.Lossless && o.Net.Drops != 0 {
		v = append(v, fmt.Sprintf("%s is lossless but dropped %d packets", w.Name, o.Net.Drops))
	}
	if c, f := o.completed(), o.failed(); c+f != ops {
		v = append(v, fmt.Sprintf("ops: completed %d + failed %d != attempted %d", c, f, ops))
	}
	return v
}
