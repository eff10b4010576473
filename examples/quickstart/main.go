// Quickstart: build a simulated SNAcc system (Alveo U280 + Samsung 990 PRO
// model + NVMe Streamer), write data to the SSD through the Streamer's
// AXI-stream interface the way a user PE would, read it back, and print the
// system counters.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"snacc"
)

func main() {
	// URAM variant, functional mode: payload bytes travel the whole path —
	// AXI streams → staging buffer → PCIe P2P → NVMe → NAND media.
	sys, err := snacc.NewSystem(snacc.Options{Variant: snacc.URAM})
	if err != nil {
		log.Fatalf("system init: %v", err)
	}
	fmt.Printf("system up: %d-byte SSD, streamer resources: %s\n",
		sys.Capacity(), sys.Resources())

	payload := make([]byte, 1<<20) // one full NVMe command worth
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	sys.Execute(func(h *snacc.Handle) {
		start := h.Now()
		if err := h.WriteErr(4096, payload); err != nil {
			log.Fatalf("write: %v", err)
		}
		wrote := h.Now()
		got, err := h.ReadErr(4096, int64(len(payload)))
		if err != nil {
			log.Fatalf("read: %v", err)
		}
		read := h.Now()

		if !bytes.Equal(got, payload) {
			log.Fatal("read-back mismatch")
		}
		fmt.Printf("wrote 1 MiB in %.1f us (%.2f GB/s)\n",
			float64(wrote-start)/1e3, float64(len(payload))/float64(wrote-start))
		fmt.Printf("read it back in %.1f us (%.2f GB/s), contents verified\n",
			float64(read-wrote)/1e3, float64(len(payload))/float64(read-wrote))
	})

	st := sys.Stats()
	fmt.Printf("NVMe commands: %d submitted, %d retired, %d errors\n",
		st.CommandsSubmitted, st.CommandsRetired, st.CommandErrors)
	fmt.Printf("PCIe payload into SSD: %d bytes; into card: %d bytes\n",
		st.PCIeSSDRx, st.PCIeCardRx)
}
