package tapasco

import (
	"errors"
	"fmt"

	"snacc/internal/memmodel"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// enumWindow is where enumeration places the register BAR of an SSD added
// without a fixed one (nvme.Config.BARBase 0).
const enumWindow = 0x10_0000_0000

// Node is one SNAcc card brought up end to end: a platform, the NVMe SSDs
// on its fabric, and the Streamers bound to their I/O queue pairs. It runs
// the §4.6 host bring-up for all of them — admin queue, I/O queue creation
// inside each Streamer's window, IOMMU grants and doorbell programming.
type Node struct {
	Platform *Platform
	ssds     []*SSD
}

// SSD is one NVMe controller of a Node and the Streamers bound to it. The
// Streamers take consecutive I/O queue pairs in add order, from qid 1 (qid
// 0 is the host's admin queue).
type SSD struct {
	Dev       *nvme.Device
	streamers []*streamer.Streamer
}

// NewNode assembles the platform of a node on kernel k.
func NewNode(k *sim.Kernel, cfg PlatformConfig) *Node {
	return &Node{Platform: NewPlatform(k, cfg)}
}

// AddSSD attaches an NVMe controller to the node's fabric.
func (n *Node) AddSSD(cfg nvme.Config) *SSD {
	s := &SSD{Dev: nvme.New(n.Platform.K, n.Platform.Fabric, cfg)}
	n.ssds = append(n.ssds, s)
	return s
}

// AddStreamer instantiates a Streamer plugin (Platform.AddStreamer) and
// binds it to the next free I/O queue pairs of ssd.
func (n *Node) AddStreamer(ssd *SSD, cfg streamer.Config) *streamer.Streamer {
	st := n.Platform.AddStreamer(cfg)
	ssd.streamers = append(ssd.streamers, st)
	return st
}

// AddStreamerHBM is AddStreamer for a Streamer staging in the HBM stack
// (Platform.AddStreamerHBM).
func (n *Node) AddStreamerHBM(ssd *SSD, cfg streamer.Config, hbm *memmodel.HBM) *streamer.Streamer {
	st := n.Platform.AddStreamerHBM(cfg, hbm)
	ssd.streamers = append(ssd.streamers, st)
	return st
}

// Trace attaches tr to every Streamer added so far and routes each SSD's
// fetch/execute events to the Streamer owning the event's queue pair; the
// CID, unique across a Streamer's queues, is its reorder-buffer slot.
func (n *Node) Trace(tr *obs.Tracer) {
	for _, s := range n.ssds {
		for _, st := range s.streamers {
			st.SetTracer(tr)
		}
		s.Dev.SetCmdObserver(func(qid, cid uint16, stage obs.Stage, at sim.Time) {
			first := uint16(1)
			for _, st := range s.streamers {
				if qid >= first && int(qid-first) < st.IOQueues() {
					st.OnDeviceEvent(cid, stage, at)
					return
				}
				first += uint16(st.IOQueues())
			}
		})
	}
}

// Init runs the host bring-up inside p: it enumerates the fabric, loads a
// driver per SSD, and — SSD by SSD in add order — initializes the
// controller and attaches its Streamers.
func (n *Node) Init(p *sim.Proc) error {
	nvmes := pcie.FindByClass(n.Platform.Fabric.Enumerate(enumWindow), pcie.ClassNVMe)
	if len(nvmes) != len(n.ssds) {
		return fmt.Errorf("tapasco: enumeration found %d NVMe controllers, want %d", len(nvmes), len(n.ssds))
	}
	drvs := make([]*Driver, len(n.ssds))
	for i, s := range n.ssds {
		cfg := s.Dev.Config()
		drvs[i] = NewDriver(n.Platform, cfg.Name, cfg.BARBase)
	}
	for i, s := range n.ssds {
		if err := drvs[i].InitController(p); err != nil {
			return err
		}
		qid := uint16(1)
		for _, st := range s.streamers {
			if err := drvs[i].AttachStreamer(p, st, qid); err != nil {
				return err
			}
			qid += uint16(st.IOQueues())
		}
	}
	return nil
}

// Boot spawns Init as the node kernel's "init" process and drains the
// kernel.
func (n *Node) Boot() error {
	err := errors.New("tapasco: initialization stalled")
	k := n.Platform.K
	k.Spawn("init", func(p *sim.Proc) { err = n.Init(p) })
	k.Run(0)
	return err
}

// AttachBoundaryTracer installs a PCIe tracer at st's staging-buffer
// boundary — where the paper's §5.2 ILA sits: the card port for the
// on-card variants (filtered to the payload window), the host port for the
// host-DRAM variant.
func (pl *Platform) AttachBoundaryTracer(st *streamer.Streamer) *pcie.Tracer {
	tr := pcie.NewTracer(pl.K)
	cfg := st.Config()
	if cfg.Variant == streamer.HostDRAM {
		base := pl.cfg.Host.MemBase
		tr.Filter = func(addr uint64, n int64) bool { return addr >= base && n >= 4096 }
		pl.Host.Port.AttachTracer(tr)
		return tr
	}
	base := cfg.WindowBase
	span := uint64(cfg.ReadBufBytes + cfg.WriteBufBytes)
	if cfg.Variant == streamer.URAM {
		span = uint64(cfg.ReadBufBytes)
	}
	tr.Filter = func(addr uint64, n int64) bool {
		return addr >= base && addr < base+span && n >= 4096
	}
	pl.Card.AttachTracer(tr)
	return tr
}
