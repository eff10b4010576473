package casestudy

import (
	"fmt"

	"snacc/internal/ethernet"
	"snacc/internal/imagestream"
	"snacc/internal/sim"
)

// dbItem is one image ready for persistence: the original frame (bypassing
// classification, per Figure 5) paired with its classification record.
type dbItem struct {
	img    imagestream.Image
	data   []byte // original pixels (functional runs)
	record []byte
	// sentAt is when the image's last frame entered the transmit queue,
	// carried through the pipeline on the frame metadata for end-to-end
	// latency accounting.
	sentAt sim.Time
}

// frontEnd is the FPGA-side receive pipeline shared by every run:
// transmitter FPGA → 100 G Ethernet with flow control → receive PE, then,
// when the card classifies, → downscaler PE → FINN classifier PE. Its
// output channel delivers in-order dbItems; a bounded capacity propagates
// backpressure from the storage path all the way to the Ethernet
// transmitter via pause frames.
type frontEnd struct {
	k   *sim.Kernel
	cfg Config

	tx, rx *ethernet.MAC
	out    *sim.Chan[dbItem]
}

// imageEnd marks the final frame of an image on the wire, timestamped at
// transmit-queue entry.
type imageEnd struct {
	img    imagestream.Image
	sentAt sim.Time
}

// newFrontEnd wires the pipeline and starts its processes. Without
// classify the card is only a NIC (the GPU reference): reassembled images
// go straight out, and scaling and classification move to the host.
func newFrontEnd(k *sim.Kernel, cfg Config, classify bool) *frontEnd {
	ecfg := ethernet.DefaultConfig()
	if cfg.EthernetMTU > 0 {
		ecfg.MTU = cfg.EthernetMTU
	}
	fe := &frontEnd{
		k:   k,
		cfg: cfg,
		tx:  ethernet.NewMAC(k, "txfpga", ecfg),
		rx:  ethernet.NewMAC(k, "rxfpga", ecfg),
		out: sim.NewChan[dbItem](k, 4),
	}
	fe.connect(ecfg)
	k.Spawn("sender", fe.senderLoop)
	if !classify {
		k.Spawn("rxpe", func(p *sim.Proc) { fe.rxLoop(p, fe.out) })
		return fe
	}
	// Separate processes per PE so reception, scaling and classification
	// pipeline the way distinct hardware stages do (Figure 5). Each PE
	// serves one image at a time in its own process, so it is busy exactly
	// while that process sleeps.
	toScaler := sim.NewChan[dbItem](k, 2)
	toClassifier := sim.NewChan[dbItem](k, 2)
	k.Spawn("rxpe", func(p *sim.Proc) { fe.rxLoop(p, toScaler) })
	k.Spawn("scaler", func(p *sim.Proc) { fe.scalerLoop(p, toScaler, toClassifier) })
	k.Spawn("classifier", func(p *sim.Proc) { fe.classifierLoop(p, toClassifier) })
	return fe
}

// senderLoop is the transmitter FPGA: it streams every image as a train of
// frames, marking the final frame with the image descriptor.
func (fe *frontEnd) senderLoop(p *sim.Proc) {
	p.SetDaemon(true)
	gen := imagestream.NewGenerator(fe.cfg.Source)
	for {
		img, ok := gen.Next()
		if !ok {
			return
		}
		total := img.Bytes()
		var pixels []byte
		if fe.cfg.Functional {
			pixels = make([]byte, total)
			imagestream.Synthesize(img, fe.cfg.Seed, pixels)
		}
		var off int64
		for off < total {
			n := fe.cfg.EthernetFrameBytes
			if n > total-off {
				n = total - off
			}
			f := ethernet.Frame{Bytes: n, DstPort: 1}
			if pixels != nil {
				f.Data = pixels[off : off+n]
			}
			off += n
			if off == total {
				f.Meta = imageEnd{img: img, sentAt: p.Now()}
			}
			fe.tx.Send(p, f)
		}
	}
}

// rxLoop reassembles images from the Ethernet frame stream.
func (fe *frontEnd) rxLoop(p *sim.Proc, out *sim.Chan[dbItem]) {
	p.SetDaemon(true)
	var buf []byte
	var got int64
	for {
		f := fe.rx.Recv(p)
		got += f.Bytes
		if fe.cfg.Functional {
			buf = append(buf, f.Data...)
		}
		end, ok := f.Meta.(imageEnd)
		if !ok {
			continue
		}
		if got != end.img.Bytes() {
			panic(fmt.Sprintf("casestudy: image %d reassembled %d of %d bytes", end.img.ID, got, end.img.Bytes()))
		}
		out.Put(p, dbItem{img: end.img, data: buf, sentAt: end.sentAt})
		buf = nil
		got = 0
	}
}

// scalerLoop is the downscaler PE: it streams each frame once through the
// fabric datapath.
func (fe *frontEnd) scalerLoop(p *sim.Proc, in, out *sim.Chan[dbItem]) {
	p.SetDaemon(true)
	const scalerBytesPerSec = 19.2e9 // 64 B × 300 MHz streaming datapath
	for {
		it := in.Get(p)
		p.Sleep(sim.TransferTime(it.img.Bytes(), scalerBytesPerSec))
		out.Put(p, it)
	}
}

// classifierLoop is the FINN MobileNet-V1 PE: one inference slot per image,
// with the pipeline latency paid once at stream start.
func (fe *frontEnd) classifierLoop(p *sim.Proc, in *sim.Chan[dbItem]) {
	p.SetDaemon(true)
	first := true
	for {
		it := in.Get(p)
		p.Sleep(sim.Seconds(1 / fe.cfg.ClassifierFPS))
		if first {
			p.Sleep(fe.cfg.ClassifierLatency)
			first = false
		}
		if fe.cfg.Functional {
			it.record = buildRecord(it.img.ID, it.data, fe.cfg.RecordBytes)
		}
		fe.out.Put(p, it)
	}
}

// buildRecord produces a deterministic classification record from the pixel
// content so functional tests can verify end-to-end integrity.
func buildRecord(id int, pixels []byte, size int64) []byte {
	rec := make([]byte, size)
	var h uint64 = 1469598103934665603
	for _, b := range pixels {
		h ^= uint64(b)
		h *= 1099511628211
	}
	copy(rec, []byte(fmt.Sprintf("img=%d class=%d conf=%d", id, h%1000, h%97)))
	return rec
}

// connect wires transmitter to receiver, optionally through a switch so
// the §4.7 pause-propagation path is exercised end to end.
func (fe *frontEnd) connect(ecfg ethernet.Config) {
	if !fe.cfg.UseSwitch {
		ethernet.Connect(fe.tx, fe.rx)
		return
	}
	sw := ethernet.NewSwitch(fe.k, "torswitch", ecfg, 2, sim.MiB)
	sw.Attach(0, fe.tx)
	sw.Attach(1, fe.rx)
}
