// Package serve is the open-loop RPC serving tier over the simulated 100 G
// link: a length-prefixed frame codec for request/response capsules, a
// compact open-addressed connection table sized by open connections, not
// by the client population, and a front end that decodes arrivals off
// ethernet.MAC frames, batches them into the NVMe Streamer (or a
// TenantHub), and closes the backpressure loop — a full dispatch queue stalls the receiver, the MAC's
// 802.3x machinery pauses the transmitter, and the open-loop client sheds
// load at its bound instead of buffering without limit.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format. Every capsule is little-endian, length-prefixed, and starts
// with the same 8-byte prologue:
//
//	off 0  magic   uint16  0x5352 "SR"
//	off 2  version uint8   1
//	off 3  op      uint8   request: OpRead/OpWrite; response: opResponse
//	off 4  length  uint32  total capsule bytes, header + inline payload
//
// A request continues:
//
//	off 8  conn    uint32  connection id
//	off 12 tenant  uint16
//	off 14 flags   uint16  bit 0: FIN (close the connection after this op)
//	off 16 id      uint64  request id, echoed by the response
//	off 24 addr    uint64  device byte address (512-aligned)
//	off 32 n       uint64  transfer length (positive multiple of 512)
//
// A response continues:
//
//	off 8  conn    uint32
//	off 12 tenant  uint16
//	off 14 status  uint16  0 = OK
//	off 16 id      uint64
//	off 24 n       uint64  bytes actually moved
//
// The length field may exceed the header by the inline payload the capsule
// carries (write data on requests, read data on responses); a timing-only
// capsule omits the payload and charges it on the Ethernet frame's Bytes
// instead. Anything else — short buffer, wrong magic or version, a length
// below the header or past the oversize cap, a payload that matches neither
// zero nor n, an unaligned or oversized transfer — is a decode error. The
// decoder never panics and never reads past length (FuzzParseFrame pins
// both).

const (
	// Magic opens every capsule.
	Magic = 0x5352
	// Version is the only wire version this codec speaks.
	Version = 1

	// RequestHeaderBytes / ResponseHeaderBytes are the fixed header sizes.
	RequestHeaderBytes  = 40
	ResponseHeaderBytes = 32

	// MaxTransferBytes bounds a single request's transfer length; a length
	// prefix implying more than header+MaxTransferBytes is rejected as
	// oversized before any allocation happens.
	MaxTransferBytes = 4 << 20
)

// Op selects a request's storage operation.
type Op uint8

// Request operations, and the reserved response marker.
const (
	OpRead  Op = 1
	OpWrite Op = 2
	// opResponse tags response capsules so a request decoder pointed at a
	// response stream fails loudly instead of misparsing.
	opResponse Op = 0x80
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// FlagFin marks a request as the connection's last; the server closes the
// connection after dispatching it.
const FlagFin = 1 << 0

// Decode errors. All parse failures wrap one of these.
var (
	ErrTruncated = errors.New("serve: truncated capsule")
	ErrMagic     = errors.New("serve: bad capsule magic")
	ErrVersion   = errors.New("serve: unsupported capsule version")
	ErrOp        = errors.New("serve: unknown capsule op")
	ErrLength    = errors.New("serve: bad capsule length")
	ErrTransfer  = errors.New("serve: bad transfer shape")
)

// Request is one decoded RPC request.
type Request struct {
	ID     uint64
	Conn   uint32
	Tenant uint16
	Flags  uint16
	Op     Op
	Addr   uint64
	N      int64
	// Payload is the inline write data (nil for timing-only capsules).
	Payload []byte
}

// Fin reports whether the request closes its connection.
func (r Request) Fin() bool { return r.Flags&FlagFin != 0 }

// WireBytes is the capsule's modeled on-wire size: the header plus the
// operation's payload (write data travels with the request), whether or not
// the payload is carried inline.
func (r Request) WireBytes() int64 {
	if r.Op == OpWrite {
		return RequestHeaderBytes + r.N
	}
	return RequestHeaderBytes
}

// Response answers one request.
type Response struct {
	ID     uint64
	Conn   uint32
	Tenant uint16
	// Status is 0 on success; any other value is a server-side error code.
	Status uint16
	// N is the byte count the operation moved.
	N int64
	// Read marks a read response, whose payload travels back on the wire.
	Read bool
	// Payload is the inline read data (nil for timing-only capsules).
	Payload []byte
}

// WireBytes is the response's modeled on-wire size (read data travels with
// the response).
func (r Response) WireBytes() int64 {
	if r.Read {
		return ResponseHeaderBytes + r.N
	}
	return ResponseHeaderBytes
}

// AppendRequest encodes r onto dst and returns the extended slice.
func AppendRequest(dst []byte, r Request) []byte {
	var h [RequestHeaderBytes]byte
	binary.LittleEndian.PutUint16(h[0:], Magic)
	h[2] = Version
	h[3] = byte(r.Op)
	binary.LittleEndian.PutUint32(h[4:], uint32(RequestHeaderBytes+len(r.Payload)))
	binary.LittleEndian.PutUint32(h[8:], r.Conn)
	binary.LittleEndian.PutUint16(h[12:], r.Tenant)
	binary.LittleEndian.PutUint16(h[14:], r.Flags)
	binary.LittleEndian.PutUint64(h[16:], r.ID)
	binary.LittleEndian.PutUint64(h[24:], r.Addr)
	binary.LittleEndian.PutUint64(h[32:], uint64(r.N))
	dst = append(dst, h[:]...)
	return append(dst, r.Payload...)
}

// AppendResponse encodes r onto dst and returns the extended slice. The
// Read direction rides the status field's top bit so it survives the trip.
func AppendResponse(dst []byte, r Response) []byte {
	var h [ResponseHeaderBytes]byte
	binary.LittleEndian.PutUint16(h[0:], Magic)
	h[2] = Version
	h[3] = byte(opResponse)
	binary.LittleEndian.PutUint32(h[4:], uint32(ResponseHeaderBytes+len(r.Payload)))
	binary.LittleEndian.PutUint32(h[8:], r.Conn)
	binary.LittleEndian.PutUint16(h[12:], r.Tenant)
	status := r.Status
	if r.Read {
		status |= respReadBit
	}
	binary.LittleEndian.PutUint16(h[14:], status)
	binary.LittleEndian.PutUint64(h[16:], r.ID)
	binary.LittleEndian.PutUint64(h[24:], uint64(r.N))
	dst = append(dst, h[:]...)
	return append(dst, r.Payload...)
}

// respReadBit marks a read response in the status field. Status codes keep
// to the low 15 bits.
const respReadBit = 0x8000

// prologue validates the shared 8-byte capsule opening and returns the op
// and total capsule length. maxLen is the op-specific oversize cap.
func prologue(b []byte, minLen, maxLen int) (Op, int, error) {
	if len(b) < 8 {
		return 0, 0, fmt.Errorf("%w: %d of 8 prologue bytes", ErrTruncated, len(b))
	}
	if m := binary.LittleEndian.Uint16(b[0:]); m != Magic {
		return 0, 0, fmt.Errorf("%w: %#04x", ErrMagic, m)
	}
	if b[2] != Version {
		return 0, 0, fmt.Errorf("%w: %d", ErrVersion, b[2])
	}
	length := binary.LittleEndian.Uint32(b[4:])
	if length < uint32(minLen) || length > uint32(maxLen) {
		return 0, 0, fmt.Errorf("%w: %d outside [%d, %d]", ErrLength, length, minLen, maxLen)
	}
	if int(length) > len(b) {
		return 0, 0, fmt.Errorf("%w: capsule length %d, %d bytes buffered", ErrTruncated, length, len(b))
	}
	return Op(b[3]), int(length), nil
}

// ParseRequest decodes one request capsule from the front of b, returning
// the consumed byte count. It reads only b[:consumed] and never panics on
// arbitrary input.
func ParseRequest(b []byte) (Request, int, error) {
	op, length, err := prologue(b, RequestHeaderBytes, RequestHeaderBytes+MaxTransferBytes)
	if err != nil {
		return Request{}, 0, err
	}
	if op != OpRead && op != OpWrite {
		return Request{}, 0, fmt.Errorf("%w: %d in request stream", ErrOp, uint8(op))
	}
	r := Request{
		Op:     op,
		Conn:   binary.LittleEndian.Uint32(b[8:]),
		Tenant: binary.LittleEndian.Uint16(b[12:]),
		Flags:  binary.LittleEndian.Uint16(b[14:]),
		ID:     binary.LittleEndian.Uint64(b[16:]),
		Addr:   binary.LittleEndian.Uint64(b[24:]),
	}
	n := binary.LittleEndian.Uint64(b[32:])
	if n == 0 || n > MaxTransferBytes || n%512 != 0 || r.Addr%512 != 0 {
		return Request{}, 0, fmt.Errorf("%w: %d bytes at %#x", ErrTransfer, n, r.Addr)
	}
	r.N = int64(n)
	payload := length - RequestHeaderBytes
	if payload != 0 {
		if r.Op != OpWrite || int64(payload) != r.N {
			return Request{}, 0, fmt.Errorf("%w: %d inline bytes for a %d-byte %s", ErrLength, payload, r.N, r.Op)
		}
		r.Payload = b[RequestHeaderBytes:length:length]
	}
	return r, length, nil
}

// ParseResponse decodes one response capsule from the front of b, returning
// the consumed byte count. Same non-panic / no-over-read contract as
// ParseRequest.
func ParseResponse(b []byte) (Response, int, error) {
	op, length, err := prologue(b, ResponseHeaderBytes, ResponseHeaderBytes+MaxTransferBytes)
	if err != nil {
		return Response{}, 0, err
	}
	if op != opResponse {
		return Response{}, 0, fmt.Errorf("%w: %d in response stream", ErrOp, uint8(op))
	}
	status := binary.LittleEndian.Uint16(b[14:])
	r := Response{
		Conn:   binary.LittleEndian.Uint32(b[8:]),
		Tenant: binary.LittleEndian.Uint16(b[12:]),
		Status: status &^ respReadBit,
		Read:   status&respReadBit != 0,
		ID:     binary.LittleEndian.Uint64(b[16:]),
	}
	n := binary.LittleEndian.Uint64(b[24:])
	if n > MaxTransferBytes {
		return Response{}, 0, fmt.Errorf("%w: %d response bytes", ErrTransfer, n)
	}
	r.N = int64(n)
	payload := length - ResponseHeaderBytes
	if payload != 0 {
		if !r.Read || int64(payload) != r.N {
			return Response{}, 0, fmt.Errorf("%w: %d inline bytes for a %d-byte response", ErrLength, payload, r.N)
		}
		r.Payload = b[ResponseHeaderBytes:length:length]
	}
	return r, length, nil
}
