package streamer

import (
	"snacc/internal/axis"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// Port is the PE-facing interface of the Streamer (§4.1): four AXI4
// streams. A Streamer exposes one; a TenantHub gives every tenant its own,
// with identical framing, so one Client drives either.
type Port struct {
	ReadCmd   *axis.Stream // PE → Streamer: ReadRequest metadata
	ReadData  *axis.Stream // Streamer → PE: read payload
	WriteIn   *axis.Stream // PE → Streamer: WriteRequest + data + TLAST
	WriteResp *axis.Stream // Streamer → PE: completion tokens
}

func newPort(k *sim.Kernel, name string, cfg axis.Config) Port {
	return Port{
		ReadCmd:   axis.New(k, name+".rdcmd", cfg),
		ReadData:  axis.New(k, name+".rddata", cfg),
		WriteIn:   axis.New(k, name+".wr", cfg),
		WriteResp: axis.New(k, name+".wrresp", cfg),
	}
}

// Client drives a Port the way a user PE does over the four AXI streams.
// Tests, benchmarks, the facade and the serving tier use it; the case
// study wires its own PEs directly to the streams.
type Client struct {
	port *Port
	st   *Streamer // nil when the port is a tenant's
	// PktBytes is the data-beat packet granularity used on the write
	// stream (and expected back on the read stream). Defaults to 256 KiB.
	PktBytes int64
}

// NewClient wraps a streamer's port.
func NewClient(s *Streamer) *Client {
	return &Client{port: &s.Port, st: s, PktBytes: 256 * sim.KiB}
}

// Streamer returns the wrapped streamer, or nil for a tenant's client.
func (c *Client) Streamer() *Streamer { return c.st }

// Write streams n bytes to device byte address addr and waits for the
// response token. data may be nil (timing-only).
func (c *Client) Write(p *sim.Proc, addr uint64, n int64, data []byte) {
	c.WriteAsync(p, addr, n, data)
	c.WaitWrite(p)
}

// WriteAsync streams the write without waiting for the response token.
func (c *Client) WriteAsync(p *sim.Proc, addr uint64, n int64, data []byte) {
	c.writeAsyncT(p, 0, addr, n, pcie.Bytes(data))
}

// writeAsyncT is WriteAsync with the command attributed to a tenant, so
// spans opened by a TenantHub's commands carry the tenant. A write of
// n <= 0 is a bare header with TLAST: the Streamer acknowledges it as an
// empty write and a hub rejects it, and neither waits for data. The data
// packets are slices of data: the receiver takes references of its own to
// the pages it keeps, and the caller keeps data's until the response.
func (c *Client) writeAsyncT(p *sim.Proc, tenant int, addr uint64, n int64, data pcie.Payload) {
	c.port.WriteIn.Send(p, axis.Packet{Meta: WriteRequest{Addr: addr, Tenant: tenant}, Last: n <= 0})
	var off int64
	for off < n {
		m := min(c.PktBytes, n-off)
		d := data.Slice(int(off), int(m))
		off += m
		c.port.WriteIn.Send(p, axis.Packet{Bytes: m, Data: d, Last: off == n})
	}
}

// WaitWrite consumes one write-response token.
func (c *Client) WaitWrite(p *sim.Proc) {
	c.port.WriteResp.Recv(p)
}

// WaitWriteErr consumes one write-response token and returns the error
// flag it carries (a terminal NVMe failure, a hub rejection or a degraded
// stripe), nil on success.
func (c *Client) WaitWriteErr(p *sim.Proc) error {
	err, _ := c.port.WriteResp.Recv(p).Meta.(error)
	return err
}

// WriteErr is Write returning the response token's error flag.
func (c *Client) WriteErr(p *sim.Proc, addr uint64, n int64, data []byte) error {
	return c.WritePayload(p, addr, n, pcie.Bytes(data))
}

// WritePayload is WriteErr for content already held as a payload: whole,
// aligned pages of a page view reach the device by reference, so the
// write copies none of them. data stays the caller's to release once
// WritePayload returns.
func (c *Client) WritePayload(p *sim.Proc, addr uint64, n int64, data pcie.Payload) error {
	c.writeAsyncT(p, 0, addr, n, data)
	return c.WaitWriteErr(p)
}

// ReadAsync issues a read command without consuming the data.
func (c *Client) ReadAsync(p *sim.Proc, addr uint64, n int64) {
	c.readAsyncT(p, 0, addr, n)
}

// readAsyncT is ReadAsync with the command attributed to a tenant.
func (c *Client) readAsyncT(p *sim.Proc, tenant int, addr uint64, n int64) {
	c.port.ReadCmd.Send(p, axis.Packet{Meta: ReadRequest{Addr: addr, Len: n, Tenant: tenant}})
}

// forwardRead relays one read's packets (through TLAST) to out unchanged
// and returns the payload bytes plus the first error flagged on the
// stream. A TenantHub uses it to pass a Streamer's read packet by packet to
// the tenant's port.
func (c *Client) forwardRead(p *sim.Proc, out *axis.Stream) (int64, error) {
	var total int64
	var err error
	for {
		pkt := c.port.ReadData.Recv(p)
		total += pkt.Bytes
		if e, ok := pkt.Meta.(error); ok && err == nil {
			err = e
		}
		out.Send(p, pkt)
		if pkt.Last {
			return total, err
		}
	}
}

// ConsumeRead drains packets for one read request (until TLAST) and
// returns the total bytes and concatenated content (functional mode).
// Stream error flags are ignored; use ConsumeReadErr to observe them.
func (c *Client) ConsumeRead(p *sim.Proc) (int64, []byte) {
	total, data, _ := c.ConsumeReadErr(p)
	return total, data
}

// ConsumeReadErr drains packets for one read request (until TLAST) and
// returns the delivered bytes, the concatenated content (functional mode),
// and the first error flagged on the stream. Failed pieces deliver no
// payload, so on error the byte count falls short of the request and the
// content holds only the delivered bytes, packed.
func (c *Client) ConsumeReadErr(p *sim.Proc) (int64, []byte, error) {
	total, view, err := c.consumeRead(p, true)
	return total, concat(view), err
}

// DrainRead consumes one read's packets (until TLAST) like ConsumeReadErr
// but recycles the payload instead of collecting it, so a caller that only
// wants the timing allocates nothing, even on a functional system.
func (c *Client) DrainRead(p *sim.Proc) (int64, error) {
	total, _, err := c.consumeRead(p, false)
	return total, err
}

// consumeRead drains one read's packets through TLAST. It holds each
// packet's payload until TLAST and then puts them all, packed in order,
// into one page view of the delivered length, which takes the packets'
// whole, aligned pages by reference (pcie.Payload.Put) and is the
// caller's to release; keep == false drops the content instead. Every
// packet's payload is released.
func (c *Client) consumeRead(p *sim.Proc, keep bool) (int64, pcie.Payload, error) {
	var total int64
	var parts []pcie.Payload
	var kept int
	var err error
	for {
		pkt := c.port.ReadData.Recv(p)
		if e, ok := pkt.Meta.(error); ok && err == nil {
			err = e
		}
		total += pkt.Bytes
		if keep && !pkt.Data.IsNil() {
			parts = append(parts, pkt.Data)
			kept += pkt.Data.Len()
		} else {
			pkt.Data.Release()
		}
		if pkt.Last {
			var view pcie.Payload
			if len(parts) > 0 {
				view = pcie.NewPages(0, kept)
			}
			off := 0
			for _, d := range parts {
				view.Put(d, off)
				off += d.Len()
				d.Release()
			}
			return total, view, err
		}
	}
}

// concat copies a read's page view out as one slice and releases it.
func concat(view pcie.Payload) []byte {
	data := view.Bytes()
	view.Release()
	return data
}

// Read performs a blocking read of n bytes at device byte address addr.
func (c *Client) Read(p *sim.Proc, addr uint64, n int64) []byte {
	c.ReadAsync(p, addr, n)
	got, view, _ := c.consumeRead(p, true)
	if got != n {
		panic("streamer: read returned unexpected length")
	}
	return concat(view)
}

// ReadErr performs a blocking read of n bytes, surfacing stream error flags
// instead of panicking on a short delivery. On error the content holds only
// the pieces that were delivered, packed, so it falls short of n.
func (c *Client) ReadErr(p *sim.Proc, addr uint64, n int64) ([]byte, error) {
	view, err := c.ReadPayload(p, addr, n)
	return concat(view), err
}

// ReadPayload is ReadErr returning the content as a page view, which the
// caller releases: the pages the read shared out of the staging memory are
// handed on by reference instead of copied out.
func (c *Client) ReadPayload(p *sim.Proc, addr uint64, n int64) (pcie.Payload, error) {
	c.ReadAsync(p, addr, n)
	got, view, err := c.consumeRead(p, true)
	if err == nil && got != n {
		panic("streamer: read returned unexpected length")
	}
	return view, err
}
