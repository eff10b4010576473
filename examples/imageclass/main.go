// Imageclass runs the paper's §6 case study end to end: a 100 G Ethernet
// image stream is received, downscaled and classified on the simulated
// FPGA, and the originals plus classifications are persisted to the NVMe
// SSD — through each of the three SNAcc Streamer variants and through the
// SPDK and GPU reference implementations. The output reproduces Figures 6
// and 7; Figure 6's CPU column carries §6.3's host-CPU consideration.
//
//	go run ./examples/imageclass [-images N]
package main

import (
	"flag"
	"fmt"
	"os"

	"snacc"
)

func main() {
	s := snacc.DefaultScale()
	flag.IntVar(&s.Images, "images", s.Images, "stream length (the paper uses 16384 ≈ 147 GB)")
	flag.Parse()

	fmt.Printf("streaming %d images (~9 MB each) through five pipelines...\n\n", s.Images)
	tables, err := snacc.Run(s, "fig6")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, t := range tables {
		fmt.Println(t)
	}
}
