package exp

import (
	"testing"

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// Bits of FuzzScenario's flags argument.
const (
	fzPFC = 1 << iota
	fzNoBDPFC
	fzDynamicRTO
	fzBackoffOnLoss
	fzSpray
	fzSharedBuffer
	fzRoCETimeouts
	fzFlap    // Faults carries one Flap
	fzDegrade // Faults carries one Degrade
)

// FuzzScenario pins the validation contract: for any scenario, either
// Validate rejects it, or a run finishes with the packet-conservation
// census and pool accounting holding — never a panic, never a run of
// nothing. The size fields stay small (arity <= 6, flows and KV requests
// <= 32, KV replicas and clients int8); every other field ranges freely
// through Validate, and a valid scenario runs, cut off 10 ms past its last
// arrival, unless it is slow to simulate. The seed corpus in
// testdata/fuzz/FuzzScenario holds one defect each that used to panic or
// run silently wrong: an odd arity, a negative extra header, and an
// unknown transport.
func FuzzScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, arity, flows, kvRequests int8,
		gbps, load, bdpCapScale, lossRate, corruptRate, degradeFactor float64,
		rtoHigh, retxFetchDelay, flapDown, flapUp, degradeFrom, degradeTo int64,
		buffer, extraHeader, incastM, incastBytes, rtoLowN, nackThreshold,
		shards, flapLink, degradeLink int, kvFollowers, kvClients int8,
		transport, cc, workload, recovery, kvMode uint8, flags uint16, seed uint64) {
		s := Scenario{
			Name:           "fuzz",
			Arity:          int(min(arity, 6)),
			Gbps:           gbps,
			BufferBytes:    buffer,
			PFC:            flags&fzPFC != 0,
			Transport:      Transport(transport),
			CC:             CCKind(cc),
			Load:           load,
			Workload:       WorkloadKind(workload),
			NumFlows:       int(min(flows, 32)),
			Seed:           seed,
			IncastM:        incastM,
			IncastBytes:    incastBytes,
			Shards:         shards,
			Recovery:       core.RecoveryMode(recovery),
			NoBDPFC:        flags&fzNoBDPFC != 0,
			RTOHigh:        sim.Duration(rtoHigh),
			RTOLowN:        rtoLowN,
			NackThreshold:  nackThreshold,
			DynamicRTO:     flags&fzDynamicRTO != 0,
			BackoffOnLoss:  flags&fzBackoffOnLoss != 0,
			RetxFetchDelay: sim.Duration(retxFetchDelay),
			ExtraHeader:    extraHeader,
			BDPCapScale:    bdpCapScale,
			Spray:          flags&fzSpray != 0,
			SharedBuffer:   flags&fzSharedBuffer != 0,
			Faults:         fault.Spec{LossRate: lossRate, CorruptRate: corruptRate},
			RoCETimeouts:   flags&fzRoCETimeouts != 0,
			KV: kv.Options{
				Requests:  int(min(kvRequests, 32)),
				Followers: int(kvFollowers),
				Clients:   int(kvClients),
				Mode:      kv.Mode(kvMode),
			},
		}
		if flags&fzFlap != 0 {
			s.Faults.Flaps = []fault.Flap{{Link: flapLink, DownAt: sim.Time(flapDown), UpAt: sim.Time(flapUp)}}
		}
		if flags&fzDegrade != 0 {
			s.Faults.Degrades = []fault.Degrade{{Link: degradeLink, From: sim.Time(degradeFrom), To: sim.Time(degradeTo), Factor: degradeFactor}}
		}
		if s.normalize().NumFlows > 32 { // the 1000-flow default
			s.NumFlows = 32
		}
		if s.Validate() != nil {
			return
		}
		if slow(s.normalize()) {
			return
		}
		r, _ := NewWorker().run(s, runOpts{grace: 10 * sim.Millisecond})
		if err := r.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	})
}

// slow reports a valid normalized scenario that would take seconds to
// simulate rather than milliseconds: an incast transfer beyond what 32
// flows need, or a retransmission timeout below the fabric's round trip,
// which fires again and again before any acknowledgement can arrive.
func slow(s Scenario) bool {
	rtt := 12 * (prop + fabric.Gbps(s.Gbps).Serialize(mtu+packet.DataHeader+s.ExtraHeader))
	return s.IncastBytes > 1<<20 || min(rtoLow, s.RTOHigh) < rtt
}
