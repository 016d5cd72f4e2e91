// Incast: the §4.4.3 experiment. Incast without cross-traffic is PFC's
// best case — only genuinely congesting flows get paused — yet IRN
// without PFC stays within a few percent of RoCE with PFC across fan-ins.
package main

import (
	"fmt"
	"log"

	"github.com/irnsim/irn"
)

func main() {
	fmt.Println("Incast: striping 15MB across M senders toward one host (no cross-traffic)")
	fmt.Printf("%6s %18s %18s %12s\n", "M", "IRN RCT (ms)", "RoCE+PFC RCT (ms)", "ratio")

	run := func(cfg irn.Config) irn.Result {
		r, err := irn.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	for _, m := range []int{10, 20, 30, 40, 50} {
		irnRes := run(irn.Config{
			Transport:   irn.TransportIRN,
			IncastFanIn: m,
			IncastBytes: 15_000_000,
			Seed:        uint64(m),
		})
		roce := run(irn.Config{
			Transport:   irn.TransportRoCE,
			PFC:         true,
			IncastFanIn: m,
			IncastBytes: 15_000_000,
			Seed:        uint64(m),
		})
		fmt.Printf("%6d %18.3f %18.3f %12.3f\n",
			m, irnRes.IncastRCTms, roce.IncastRCTms, irnRes.IncastRCTms/roce.IncastRCTms)
	}
	fmt.Println("\npaper: the RCT ratio stays within 2.5% of 1.0 (Figure 9)")
}
