package casestudy

import (
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// RunSNAccStriped executes the case study with the §7 multi-SSD extension:
// the database controller persists through a striped set of n Streamer+SSD
// pairs consolidated into one address space. The paper's closing
// observation — "our single NVMe cannot keep-up with the 100G network
// rate, even though the PCIe bus is not fully loaded" — resolves here:
// with two or more SSDs the pipeline runs into the 100 G link itself.
func RunSNAccStriped(n int, cfg Config) Result {
	k := sim.NewKernel()
	node := tapasco.NewNode(k, tapasco.DefaultU280())
	var sts []*streamer.Streamer
	var devs []*nvme.Device
	for i := 0; i < n; i++ {
		devCfg := nvme.DefaultConfig(fmt.Sprintf("ssd%d", i), uint64(caseSSDBAR)+uint64(i)*0x100000)
		devCfg.Functional = cfg.Functional
		ssd := node.AddSSD(devCfg)
		devs = append(devs, ssd.Dev)
		// URAM members: their P2P fetch paths are fully independent, so
		// aggregate bandwidth scales with the SSD count until the network
		// or the card link caps it.
		stCfg := streamer.DefaultConfig(fmt.Sprintf("snacc%d", i), 0, streamer.URAM)
		stCfg.Functional = cfg.Functional
		sts = append(sts, node.AddStreamer(ssd, stCfg))
	}

	fe := newFrontEnd(k, cfg)
	perImage := cfg.imageWriteBytes()
	// Stripe-aligned cursor: each image starts on a stripe boundary.
	stride := (perImage + sim.MiB - 1) &^ (sim.MiB - 1)
	var start, end sim.Time

	k.Spawn("main", func(p *sim.Proc) {
		if err := node.Init(p); err != nil {
			panic(err)
		}
		striped := streamer.NewStriped(k, sts, sim.MiB)
		start = p.Now()
		done := sim.NewChan[struct{}](k, 1)
		k.Spawn("dbtokens", func(tp *sim.Proc) {
			for i := 0; i < cfg.Images; i++ {
				striped.WaitWrite(tp)
			}
			end = tp.Now()
			done.TryPut(struct{}{})
		})
		k.Spawn("db", func(dp *sim.Proc) {
			var cursor uint64
			for i := 0; i < cfg.Images; i++ {
				it := fe.out.Get(dp)
				var payload []byte
				if cfg.Functional {
					payload = make([]byte, perImage)
					copy(payload, it.data)
					copy(payload[perImage-cfg.RecordBytes:], it.record)
				}
				striped.WriteAsync(dp, cursor, perImage, payload)
				cursor += uint64(stride)
			}
		})
		done.Get(p)
	})
	k.Run(0)

	res := Result{
		Variant:        fmt.Sprintf("SNAcc/Striped-%d", n),
		Images:         cfg.Images,
		Bytes:          perImage * int64(cfg.Images),
		Elapsed:        end - start,
		PCIe:           map[string]int64{},
		EthernetPauses: fe.tx.PausesHonored(),
		FramesDropped:  fe.rx.FramesDropped(),
	}
	ports := map[string]*pcie.Port{"card": node.Platform.Card, "host": node.Platform.Host.Port}
	for i, d := range devs {
		ports[fmt.Sprintf("ssd%d", i)] = d.Port()
		res.Errors += d.Errors() + sts[i].CommandErrors()
	}
	collectPCIe(&res, ports)
	return res
}
