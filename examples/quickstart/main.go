// Quickstart: reproduce the paper's headline result on a small scale —
// IRN without PFC beats RoCE with PFC (§4.2), and RoCE collapses without
// PFC while IRN does not.
package main

import (
	"fmt"
	"log"

	"github.com/irnsim/irn"
)

func main() {
	fmt.Println("IRN quickstart: 54-host fat-tree, 40 Gbps, 70% load, 1500 flows")
	fmt.Println()

	// run prints one arm's line and returns its average FCT in ms.
	run := func(name string, cfg irn.Config) float64 {
		cfg.NumFlows = 1500
		r, err := irn.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s avg_slowdown=%6.2f  avg_fct=%8.4fms  p99_fct=%8.4fms  drops=%d\n",
			name, r.AvgSlowdown, r.AvgFCT.Millis(), r.TailFCT.Millis(), r.Net.Drops)
		return r.AvgFCT.Millis()
	}

	irnFCT := run("IRN (no PFC)", irn.Config{Transport: irn.TransportIRN})
	irnPFC := run("IRN + PFC", irn.Config{Transport: irn.TransportIRN, PFC: true})
	roce := run("RoCE + PFC", irn.Config{Transport: irn.TransportRoCE, PFC: true})
	roceNo := run("RoCE (no PFC)", irn.Config{Transport: irn.TransportRoCE})

	fmt.Println()
	fmt.Printf("IRN vs RoCE+PFC:   %.2fx better avg FCT   (paper: IRN wins by 6-83%%)\n",
		roce/irnFCT)
	fmt.Printf("PFC's effect on IRN:  %+.1f%% avg FCT      (paper: PFC does not help IRN)\n",
		100*(irnPFC-irnFCT)/irnFCT)
	fmt.Printf("PFC's effect on RoCE: %+.1f%% avg FCT      (paper: RoCE requires PFC)\n",
		100*(roceNo-roce)/roce)
}
