// Multissd demonstrates the §7 "Multi-SSD Support" extension: several NVMe
// Streamer instances on one FPGA card, each with its own submission and
// completion queues toward its own SSD, writing concurrently. Aggregate
// bandwidth scales with the SSD count until the card's PCIe Gen3 x16 link
// saturates near 15 GB/s — exactly the saturation behaviour §7 predicts
// multi-SSD setups will exhibit (and mitigate with faster links), followed
// by the projected remedy, PCIe 5.0 SSDs. The final table shows degraded
// operation: a striped member surprise-removed mid-stream fails only its
// own stripes while the survivors keep streaming.
//
//	go run ./examples/multissd
package main

import (
	"fmt"
	"os"

	"snacc"
)

func main() {
	fmt.Println("scaling NVMe Streamer + SSD pairs on one Alveo U280, then PCIe 5.0 SSDs and a degraded striped set...")
	tables, err := snacc.Run(snacc.DefaultScale(), "multissd", "gen5", "degraded")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t)
	}
}
