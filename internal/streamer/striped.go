package streamer

import (
	"fmt"

	"snacc/internal/axis"
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// Striped consolidates several NVMe Streamers (each with its own SSD and
// its own submission/completion queues) behind one address space — the
// first of §7's two multi-SSD interface options ("either consolidating
// them into a single address space or providing distinct stream
// interfaces"). Data is striped RAID-0 style: stripe i of a transfer goes
// to streamer (addr/stripe + i) mod N, so large sequential transfers engage
// every SSD concurrently and aggregate bandwidth approaches N × one SSD
// (until the card's PCIe link saturates — ablation A3).
type Striped struct {
	k           *sim.Kernel
	clients     []*Client
	stripeBytes int64

	// Per-member worker queues keep each member's write stream framed
	// while independent Write calls pipeline across the set.
	jobs []*sim.Chan[stripeJob]
	// completions delivers one token per finished WriteAsync call, in
	// issue order, carrying the worst member error (nil on clean writes).
	completions *sim.Chan[error]
	// readQ holds reads a TenantHub issued (readAsyncT) until its
	// completion proc executes them (forwardRead): striped reads block and
	// must not overlap. Its capacity only has to exceed the hub's
	// outstanding-command window.
	readQ *sim.Chan[tenantJob]

	// Degraded-operation counters: stripes that failed terminally on a
	// member while the rest of the set kept streaming.
	degradedReads  int64
	degradedWrites int64
}

// stripeJob is one member-run of a striped write.
type stripeJob struct {
	devAddr uint64
	n       int64
	data    []byte
	tracker *stripeTracker
	tenant  int
}

// stripeTracker counts a write call's outstanding runs and keeps the first
// member error.
type stripeTracker struct {
	remaining int
	err       error
	s         *Striped
}

// NewStriped builds the consolidated view. stripeBytes must be a positive
// multiple of 4 KiB; 1 MiB (one NVMe command per stripe) is the natural
// choice.
func NewStriped(k *sim.Kernel, streamers []*Streamer, stripeBytes int64) *Striped {
	if len(streamers) == 0 {
		panic("streamer: striped set needs at least one streamer")
	}
	if stripeBytes <= 0 || stripeBytes%4096 != 0 {
		panic("streamer: stripe size must be a positive multiple of 4 KiB")
	}
	s := &Striped{
		k:           k,
		stripeBytes: stripeBytes,
		completions: sim.NewChan[error](k, 1<<20),
		readQ:       sim.NewChan[tenantJob](k, 1<<16),
	}
	for i, st := range streamers {
		c := NewClient(st)
		s.clients = append(s.clients, c)
		jobs := sim.NewChan[stripeJob](k, 64)
		s.jobs = append(s.jobs, jobs)
		// Issue worker: pushes runs through the member's write stream in
		// job order. Ack worker: pairs response tokens FIFO.
		acks := sim.NewChan[*stripeTracker](k, 1<<20)
		member := i
		k.Spawn(fmt.Sprintf("stripe%d.issue", i), func(p *sim.Proc) {
			p.SetDaemon(true)
			for {
				j := jobs.Get(p)
				c.writeAsyncT(p, j.tenant, j.devAddr, j.n, j.data)
				acks.Put(p, j.tracker)
			}
		})
		k.Spawn(fmt.Sprintf("stripe%d.ack", i), func(p *sim.Proc) {
			p.SetDaemon(true)
			for {
				tr := acks.Get(p)
				// A dead member resolves its stripes with terminal errors
				// rather than stalling the set: record, count, keep going.
				if err := c.WaitWriteErr(p); err != nil {
					s.degradedWrites++
					if tr.err == nil {
						tr.err = fmt.Errorf("striped member %d: %w", member, err)
					}
				}
				tr.remaining--
				if tr.remaining == 0 {
					tr.s.completions.TryPut(tr.err)
				}
			}
		})
	}
	return s
}

// Width returns the number of member streamers.
func (s *Striped) Width() int { return len(s.clients) }

// StripeBytes returns the striping granule.
func (s *Striped) StripeBytes() int64 { return s.stripeBytes }

// stripeRun describes one contiguous piece on one member device.
type stripeRun struct {
	member  int
	devAddr uint64
	off     int64 // offset within the logical transfer
	n       int64
}

// mapRange splits logical [addr, addr+n) into per-member runs. The logical
// address space interleaves stripes across members; each member's device
// address advances one stripe per logical round. Transfers need not be
// stripe aligned — a partial first or last stripe simply becomes a shorter
// run at the matching offset within the member's stripe.
func (s *Striped) mapRange(addr uint64, n int64) []stripeRun {
	if addr%512 != 0 || n%512 != 0 {
		panic(fmt.Sprintf("streamer: striped transfer %d@%#x not 512-aligned", n, addr))
	}
	var runs []stripeRun
	var off int64
	for n > 0 {
		pos := addr + uint64(off)
		stripeIdx := pos / uint64(s.stripeBytes)
		within := int64(pos % uint64(s.stripeBytes))
		member := int(stripeIdx % uint64(len(s.clients)))
		devStripe := stripeIdx / uint64(len(s.clients))
		m := s.stripeBytes - within
		if m > n {
			m = n
		}
		runs = append(runs, stripeRun{
			member:  member,
			devAddr: devStripe*uint64(s.stripeBytes) + uint64(within),
			off:     off,
			n:       m,
		})
		off += m
		n -= m
	}
	return runs
}

// byMember groups runs per member so each member's AXI write stream sees
// one framed request at a time (interleaving packets from two requests on
// one stream would corrupt the TLAST framing).
func (s *Striped) byMember(runs []stripeRun) [][]stripeRun {
	grouped := make([][]stripeRun, len(s.clients))
	for _, r := range runs {
		grouped[r.member] = append(grouped[r.member], r)
	}
	return grouped
}

// WriteAsync stores n bytes at the consolidated address, striping across
// the members, without waiting for completion; pair each call with one
// WaitWrite. Independent calls pipeline across images/requests while each
// member's stream stays correctly framed.
func (s *Striped) WriteAsync(p *sim.Proc, addr uint64, n int64, data []byte) {
	s.writeAsyncT(p, 0, addr, n, data)
}

// writeAsyncT is WriteAsync with the command's spans attributed to a tenant,
// so per-tenant attribution survives striping across members.
func (s *Striped) writeAsyncT(p *sim.Proc, tenant int, addr uint64, n int64, data []byte) {
	runs := s.mapRange(addr, n)
	tr := &stripeTracker{remaining: len(runs), s: s}
	for _, r := range runs {
		var d []byte
		if data != nil {
			d = data[r.off : r.off+r.n]
		}
		s.jobs[r.member].Put(p, stripeJob{devAddr: r.devAddr, n: r.n, data: d, tracker: tr, tenant: tenant})
	}
}

// WaitWrite blocks until one earlier WriteAsync call completes (tokens
// arrive in issue order), discarding any degraded-member error.
func (s *Striped) WaitWrite(p *sim.Proc) {
	s.completions.Get(p)
}

// WaitWriteErr blocks until one earlier WriteAsync call completes and
// returns the first member error, nil when every stripe landed.
func (s *Striped) WaitWriteErr(p *sim.Proc) error {
	return s.completions.Get(p)
}

// Write is the blocking form: stripe, then wait for every member.
func (s *Striped) Write(p *sim.Proc, addr uint64, n int64, data []byte) {
	s.WriteAsync(p, addr, n, data)
	s.WaitWrite(p)
}

// WriteErr is the blocking form with degraded-member errors surfaced.
func (s *Striped) WriteErr(p *sim.Proc, addr uint64, n int64, data []byte) error {
	s.WriteAsync(p, addr, n, data)
	return s.WaitWriteErr(p)
}

// stripeReadResult is one member worker's outcome.
type stripeReadResult struct {
	functional bool
	err        error
}

// Read returns n bytes from the consolidated address. Reads are not safe
// to issue concurrently with each other (the data streams would demux
// ambiguously); interleave them between Write/WaitWrite pairs instead.
// Degraded-member errors are discarded; use ReadErr to observe them.
func (s *Striped) Read(p *sim.Proc, addr uint64, n int64) []byte {
	data, _ := s.ReadErr(p, addr, n)
	return data
}

// ReadErr reads n bytes and surfaces degraded operation: a dead member
// fails its stripes with a terminal error while the surviving members keep
// streaming theirs. On error the returned buffer still holds the survivors'
// bytes (the dead member's runs read as zero).
func (s *Striped) ReadErr(p *sim.Proc, addr uint64, n int64) ([]byte, error) {
	return s.readErrT(p, 0, addr, n)
}

// readAsyncT queues a hub read; forwardRead executes it.
func (s *Striped) readAsyncT(p *sim.Proc, tenant int, addr uint64, n int64) {
	s.readQ.Put(p, tenantJob{tenant: tenant, addr: addr, n: n})
}

// forwardRead executes the oldest queued hub read and delivers it to out as
// one TLAST packet. A failed read carries a CmdError and, in functional
// mode, the survivors' bytes.
func (s *Striped) forwardRead(p *sim.Proc, out *axis.Stream) (int64, error) {
	r := s.readQ.Get(p)
	data, err := s.readErrT(p, r.tenant, r.addr, r.n)
	pkt := axis.Packet{Data: pcie.Bytes(data), Last: true}
	if data != nil || err == nil {
		// A clean timing-only read delivers no payload but the full count.
		pkt.Bytes = r.n
	}
	if err != nil {
		pkt.Meta = CmdError{Status: nvme.StatusInternalError, Addr: r.addr, Len: r.n}
	}
	out.Send(p, pkt)
	return pkt.Bytes, err
}

// readErrT is ReadErr with the command's spans attributed to a tenant.
func (s *Striped) readErrT(p *sim.Proc, tenant int, addr uint64, n int64) ([]byte, error) {
	grouped := s.byMember(s.mapRange(addr, n))
	out := make([]byte, n)
	done := sim.NewChan[stripeReadResult](s.k, len(s.clients))
	active := 0
	for member, runs := range grouped {
		if len(runs) == 0 {
			continue
		}
		active++
		c := s.clients[member]
		member, runs := member, runs
		s.k.Spawn("stripe.r", func(rp *sim.Proc) {
			res := stripeReadResult{}
			for _, r := range runs {
				d, err := c.readErrT(rp, tenant, r.devAddr, r.n)
				if err != nil {
					s.degradedReads++
					if res.err == nil {
						res.err = fmt.Errorf("striped member %d: %w", member, err)
					}
					continue
				}
				if d != nil {
					res.functional = true
					copy(out[r.off:r.off+r.n], d)
				}
			}
			done.TryPut(res)
		})
	}
	functional := false
	var err error
	for i := 0; i < active; i++ {
		res := done.Get(p)
		functional = functional || res.functional
		if err == nil {
			err = res.err
		}
	}
	if !functional {
		return nil, err
	}
	return out, err
}

// DegradedReads returns stripes whose member failed them terminally while
// the rest of the set kept serving reads.
func (s *Striped) DegradedReads() int64 { return s.degradedReads }

// DegradedWrites returns stripes whose member failed them terminally while
// the rest of the set kept serving writes.
func (s *Striped) DegradedWrites() int64 { return s.degradedWrites }

// DeadMembers lists the member indices whose controllers were declared
// dead by the recovery ladder.
func (s *Striped) DeadMembers() []int {
	var dead []int
	for i, c := range s.clients {
		if c.Streamer().Dead() {
			dead = append(dead, i)
		}
	}
	return dead
}

// Member returns the client for one member streamer.
func (s *Striped) Member(i int) *Client { return s.clients[i] }
