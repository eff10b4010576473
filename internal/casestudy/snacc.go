package casestudy

import (
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

const caseSSDBAR = 0x10_0000_0000

// RunSNAcc executes the case study with one of the three SNAcc Streamer
// variants: the database controller PE forwards the original image stream
// plus the classification record directly into the NVMe Streamer — after
// initialization "the entire application operates autonomously on the FPGA
// without any host interaction" (§6).
func RunSNAcc(v streamer.Variant, cfg Config) Result {
	res, _ := runSNAcc(v, cfg, nil)
	return res
}

func runSNAcc(v streamer.Variant, cfg Config, devHook func(*nvme.Device)) (Result, *nvme.Device) {
	res, devs := runSNAccStorage(cfg, snaccStorage{
		name:    "SNAcc/" + v.String(),
		variant: v,
		ssds:    []string{"ssd"},
		stride:  cfg.imageWriteBytes(),
		writer: func(_ *sim.Kernel, sts []*streamer.Streamer) imageWriter {
			return streamer.NewClient(sts[0])
		},
		devHook: devHook,
	})
	return res, devs[0]
}

// RunSNAccStriped executes the case study with the §7 multi-SSD extension:
// the database controller persists through a striped set of n Streamer+SSD
// pairs consolidated into one address space. The paper's closing
// observation — "our single NVMe cannot keep-up with the 100G network
// rate, even though the PCIe bus is not fully loaded" — resolves here:
// with two or more SSDs the pipeline runs into the 100 G link itself.
func RunSNAccStriped(n int, cfg Config) Result {
	ssds := make([]string, n)
	for i := range ssds {
		ssds[i] = fmt.Sprintf("ssd%d", i)
	}
	res, _ := runSNAccStorage(cfg, snaccStorage{
		name: fmt.Sprintf("SNAcc/Striped-%d", n),
		// URAM members: their P2P fetch paths are fully independent, so
		// aggregate bandwidth scales with the SSD count until the network
		// or the card link caps it.
		variant: streamer.URAM,
		ssds:    ssds,
		// Stripe-aligned cursor: each image starts on a stripe boundary.
		stride: (cfg.imageWriteBytes() + sim.MiB - 1) &^ (sim.MiB - 1),
		writer: func(k *sim.Kernel, sts []*streamer.Streamer) imageWriter {
			return streamer.NewStriped(k, sts, sim.MiB)
		},
	})
	return res
}

// imageWriter is the database controller's handle on storage: one
// Streamer's client, or a stripe over several. WaitWriteErr returns the
// error a write's response token carries, nil once the image is stored.
type imageWriter interface {
	WriteAsync(p *sim.Proc, addr uint64, n int64, data []byte)
	WaitWriteErr(p *sim.Proc) error
}

// snaccStorage is what one SNAcc run chooses: its Streamer variant, one
// Figure 7 port label per SSD+Streamer pair, the writer over those
// Streamers, and the cursor stride from one image to the next.
type snaccStorage struct {
	name    string
	variant streamer.Variant
	ssds    []string
	stride  int64
	writer  func(k *sim.Kernel, sts []*streamer.Streamer) imageWriter
	devHook func(*nvme.Device) // optional, sees each SSD before its Streamer attaches
}

// runSNAccStorage is the SNAcc write path: the front end's images go, one
// write each at a sequential cursor, from the database controller PE into
// the writer — original frame (padded) followed by the record block.
// Result.Bytes counts only the images whose write succeeded.
func runSNAccStorage(cfg Config, s snaccStorage) (Result, []*nvme.Device) {
	k := sim.NewKernel()
	defer k.Close()
	node := tapasco.NewNode(k, tapasco.DefaultU280())
	var sts []*streamer.Streamer
	var devs []*nvme.Device
	for i := range s.ssds {
		devCfg := nvme.DefaultConfig(fmt.Sprintf("ssd%d", i), uint64(caseSSDBAR)+uint64(i)*0x100000)
		devCfg.Functional = cfg.Functional
		ssd := node.AddSSD(devCfg)
		if s.devHook != nil {
			s.devHook(ssd.Dev)
		}
		devs = append(devs, ssd.Dev)
		stCfg := streamer.DefaultConfig(fmt.Sprintf("snacc%d", i), 0, s.variant)
		stCfg.Functional = cfg.Functional
		sts = append(sts, node.AddStreamer(ssd, stCfg))
	}

	fe := newFrontEnd(k, cfg, true)
	images := cfg.Source.Count
	perImage := cfg.imageWriteBytes()
	var start, end sim.Time
	stored := 0
	lat := &obs.Hist{}
	sentAt := make([]sim.Time, 0, images)

	k.Spawn("main", func(p *sim.Proc) {
		if err := node.Init(p); err != nil {
			panic(err)
		}
		w := s.writer(k, sts)
		start = p.Now()

		// Response-token consumer so writes pipeline. Tokens arrive in
		// image order (in-order retirement), so the i-th token pairs with
		// the i-th transmit timestamp for end-to-end latency. The
		// timestamps ride each dbItem (recorded below as the writes are
		// issued), never a transmitter-owned slice: the i-th write is
		// issued before the i-th token can arrive, so the read is safe.
		doneC := sim.NewChan[struct{}](k, 1)
		k.Spawn("dbtokens", func(tp *sim.Proc) {
			for i := 0; i < images; i++ {
				// Only stored images count: a failed write's token
				// says nothing about an image's end-to-end latency.
				if w.WaitWriteErr(tp) == nil {
					stored++
					lat.Record(tp.Now() - sentAt[i])
				}
			}
			end = tp.Now()
			doneC.TryPut(struct{}{})
		})

		var cursor uint64
		for i := 0; i < images; i++ {
			it := fe.out.Get(p)
			sentAt = append(sentAt, it.sentAt)
			w.WriteAsync(p, cursor, perImage, cfg.payload(it, perImage))
			cursor += uint64(s.stride)
		}
		doneC.Get(p)
	})
	k.Run(0)

	res := Result{
		Variant:        s.name,
		Images:         images,
		Bytes:          perImage * int64(stored),
		Elapsed:        end - start,
		PCIe:           map[string]int64{},
		ImageLatency:   lat,
		EthernetPauses: fe.tx.PausesHonored(),
		FramesDropped:  fe.rx.FramesDropped(),
	}
	ports := map[string]*pcie.Port{"card": node.Platform.Card, "host": node.Platform.Host.Port}
	for i, d := range devs {
		ports[s.ssds[i]] = d.Port()
		res.Errors += d.Errors() + sts[i].CommandErrors()
	}
	collectPCIe(&res, ports)
	return res, devs
}

// collectPCIe fills the Figure 7 accounting: payload bytes delivered into
// each port; the sum counts every transfer once at its destination.
func collectPCIe(res *Result, ports map[string]*pcie.Port) {
	for name, pt := range ports {
		res.PCIe[name] = pt.PayloadRx()
		res.PCIeTotal += pt.PayloadRx()
	}
}
