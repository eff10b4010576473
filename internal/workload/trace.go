package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"snacc/internal/sim"
)

// TraceOp is one operation of a recorded I/O trace.
type TraceOp struct {
	Read bool
	// Addr is the byte offset on the device (512-aligned).
	Addr uint64
	// N is the transfer length in bytes (512-aligned).
	N int64
	// Gap is the think time inserted before issuing this operation,
	// modeling the inter-arrival spacing of the captured workload. Zero
	// means issue back-to-back (closed loop).
	Gap sim.Time
}

// Trace file format — one operation per line:
//
//	R <offset-bytes> <length-bytes> [gap-us]
//	W <offset-bytes> <length-bytes> [gap-us]
//
// Blank lines and lines starting with '#' are ignored. Offsets and lengths
// accept the suffixes K, M, G (binary). This is the minimal common
// denominator of block-trace formats (blktrace / SNIA-style), chosen so
// captured traces convert with a one-line awk script.

// maxGapMicros caps a trace op's think time at 1e9 µs (~17 simulated
// minutes). Beyond roughly 2^53 ns the float µs→int64 ns conversion loses
// integer precision (and far beyond it overflows); a cap keeps every
// accepted gap exactly representable and round-trippable.
const maxGapMicros = 1e9

// ParseTrace reads a trace from r.
func ParseTrace(r io.Reader) ([]TraceOp, error) {
	var ops []TraceOp
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("trace line %d: want \"R|W offset length [gap-us]\", got %q", line, text)
		}
		var op TraceOp
		switch strings.ToUpper(fields[0]) {
		case "R":
			op.Read = true
		case "W":
			op.Read = false
		default:
			return nil, fmt.Errorf("trace line %d: op %q is not R or W", line, fields[0])
		}
		addr, err := parseSize(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace line %d: offset: %v", line, err)
		}
		n, err := parseSize(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace line %d: length: %v", line, err)
		}
		op.Addr, op.N = addr, int64(n)
		if len(fields) == 4 {
			us, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || us < 0 || us > maxGapMicros || math.IsInf(us, 0) || math.IsNaN(us) {
				return nil, fmt.Errorf("trace line %d: gap %q is not a duration in µs within [0, %g]", line, fields[3], float64(maxGapMicros))
			}
			// Round, don't truncate: FormatTrace prints gaps as µs floats, and
			// the nearest float64 to gap/1000 can sit just below the integer
			// (3 ns → "0.003" → 2.999…); rounding makes the round trip exact.
			op.Gap = sim.Time(math.Round(us * float64(sim.Microsecond)))
		}
		if err := validateOp(op); err != nil {
			return nil, fmt.Errorf("trace line %d: %v", line, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

func validateOp(op TraceOp) error {
	switch {
	case op.N <= 0 || op.N%512 != 0:
		return fmt.Errorf("length %d is not a positive multiple of 512", op.N)
	case op.Addr%512 != 0:
		return fmt.Errorf("offset %d is not 512-aligned", op.Addr)
	}
	return nil
}

// parseSize parses a non-negative integer with an optional K/M/G binary
// suffix.
func parseSize(s string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint64/mult {
		return 0, fmt.Errorf("size %q overflows 64 bits", s)
	}
	return v * mult, nil
}

// FormatTrace writes ops in the trace file format; ParseTrace inverts it.
func FormatTrace(w io.Writer, ops []TraceOp) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		c := "W"
		if op.Read {
			c = "R"
		}
		if op.Gap > 0 {
			fmt.Fprintf(bw, "%s %d %d %g\n", c, op.Addr, op.N,
				float64(op.Gap)/float64(sim.Microsecond))
		} else {
			fmt.Fprintf(bw, "%s %d %d\n", c, op.Addr, op.N)
		}
	}
	return bw.Flush()
}

// RecordTrace materializes a generated workload as a trace, so synthetic
// specs and captured traces flow through the same replay path.
func RecordTrace(spec Spec) ([]TraceOp, error) {
	gen, err := NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	var ops []TraceOp
	for {
		op, ok := gen.Next()
		if !ok {
			return ops, nil
		}
		ops = append(ops, TraceOp{Read: op.Read, Addr: op.Addr, N: op.N})
	}
}

// Replay drives the streamer with a recorded trace through the same
// pipelined harness as Run. Gap fields throttle issue (open-loop arrival
// spacing); with all gaps zero the replay is closed-loop at full queue
// pressure.
func Replay(p *sim.Proc, c Lane, name string, ops []TraceOp) (Result, error) {
	for i, op := range ops {
		if err := validateOp(op); err != nil {
			return Result{}, fmt.Errorf("trace op %d: %v", i, err)
		}
	}
	i := 0
	res := drive(p, c, name, func() (TraceOp, bool) {
		if i >= len(ops) {
			return TraceOp{}, false
		}
		op := ops[i]
		i++
		return op, true
	})
	return res, nil
}
