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
	c.writeAsyncT(p, 0, addr, n, data)
}

// writeAsyncT is WriteAsync with the command attributed to a tenant, so a
// TenantHub's issue path keeps span ownership across striping. A write of
// n <= 0 is a bare header with TLAST: the Streamer acknowledges it as an
// empty write and a hub rejects it, and neither waits for data.
func (c *Client) writeAsyncT(p *sim.Proc, tenant int, addr uint64, n int64, data []byte) {
	c.port.WriteIn.Send(p, axis.Packet{Meta: WriteRequest{Addr: addr, Tenant: tenant}, Last: n <= 0})
	var off int64
	for off < n {
		m := c.PktBytes
		if m > n-off {
			m = n - off
		}
		var d []byte
		if data != nil {
			d = data[off : off+m]
		}
		off += m
		c.port.WriteIn.Send(p, axis.Packet{Bytes: m, Data: pcie.Bytes(d), Last: off == n})
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
	c.WriteAsync(p, addr, n, data)
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
// payload, so on error the byte count falls short of the request.
func (c *Client) ConsumeReadErr(p *sim.Proc) (int64, []byte, error) {
	return c.consumeRead(p, true)
}

// DrainRead consumes one read's packets (until TLAST) like ConsumeReadErr
// but recycles the payload instead of collecting it, so a caller that only
// wants the timing allocates nothing, even on a functional system.
func (c *Client) DrainRead(p *sim.Proc) (int64, error) {
	total, _, err := c.consumeRead(p, false)
	return total, err
}

// consumeRead drains one read's packets through TLAST. It holds each
// packet's payload until TLAST and then copies them all, once, into a
// buffer of the read's exact length (pcie.Concat); keep == false drops the
// content instead. Every packet's payload is released afterwards.
func (c *Client) consumeRead(p *sim.Proc, keep bool) (int64, []byte, error) {
	var total int64
	var parts []pcie.Payload
	var err error
	for {
		pkt := c.port.ReadData.Recv(p)
		if e, ok := pkt.Meta.(error); ok && err == nil {
			err = e
		}
		total += pkt.Bytes
		if keep && !pkt.Data.IsNil() {
			parts = append(parts, pkt.Data)
		} else {
			pkt.Data.Release()
		}
		if pkt.Last {
			data := pcie.Concat(parts)
			for _, d := range parts {
				d.Release()
			}
			return total, data, err
		}
	}
}

// Read performs a blocking read of n bytes at device byte address addr.
func (c *Client) Read(p *sim.Proc, addr uint64, n int64) []byte {
	c.ReadAsync(p, addr, n)
	got, data, _ := c.consumeRead(p, true)
	if got != n {
		panic("streamer: read returned unexpected length")
	}
	return data
}

// ReadErr performs a blocking read of n bytes, surfacing stream error flags
// instead of panicking on a short delivery.
func (c *Client) ReadErr(p *sim.Proc, addr uint64, n int64) ([]byte, error) {
	return c.readErrT(p, 0, addr, n)
}

// readErrT is ReadErr with the command attributed to a tenant.
func (c *Client) readErrT(p *sim.Proc, tenant int, addr uint64, n int64) ([]byte, error) {
	c.readAsyncT(p, tenant, addr, n)
	got, data, err := c.consumeRead(p, true)
	if err == nil && got != n {
		panic("streamer: read returned unexpected length")
	}
	return data, err
}
