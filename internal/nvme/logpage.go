package nvme

import (
	"encoding/binary"

	"snacc/internal/pcie"
)

// Get Log Page support (admin opcode 0x02): the error-information log and
// the SMART/health log, the two pages every NVMe tool reads first. The
// device records failed commands and lifetime data-movement counters and
// serves them through the standard page layouts.

// OpGetLogPage is the admin opcode.
const OpGetLogPage uint8 = 0x02

// Log page identifiers.
const (
	LogPageError uint8 = 0x01
	LogPageSMART uint8 = 0x02
)

// ErrorLogEntry mirrors the 64-byte error-information entry.
type ErrorLogEntry struct {
	ErrorCount uint64
	SQID       uint16
	CID        uint16
	Status     uint16
	LBA        uint64
}

// marshalErrorEntry encodes the entry at the spec offsets.
func marshalErrorEntry(e ErrorLogEntry, b []byte) {
	binary.LittleEndian.PutUint64(b[0:], e.ErrorCount)
	binary.LittleEndian.PutUint16(b[8:], e.SQID)
	binary.LittleEndian.PutUint16(b[10:], e.CID)
	binary.LittleEndian.PutUint16(b[12:], e.Status<<1) // status field is shifted per spec
	binary.LittleEndian.PutUint64(b[16:], e.LBA)
}

const errorLogEntries = 64

// recordError appends to the error log ring (called from complete()).
func (d *Device) recordError(q *queuePair, cmd Command, status uint16) {
	d.errorCount++
	e := ErrorLogEntry{
		ErrorCount: d.errorCount,
		SQID:       q.id,
		CID:        cmd.CID,
		Status:     status,
		LBA:        cmd.SLBA(),
	}
	if len(d.errorLog) < errorLogEntries {
		d.errorLog = append(d.errorLog, e)
		return
	}
	copy(d.errorLog, d.errorLog[1:])
	d.errorLog[len(d.errorLog)-1] = e
}

// ErrorLog returns a copy of the recorded entries, newest last.
func (d *Device) ErrorLog() []ErrorLogEntry {
	return append([]ErrorLogEntry(nil), d.errorLog...)
}

// adminGetLogPage serves the error and SMART pages.
func (d *Device) adminGetLogPage(c *command) {
	cmd := c.cmd
	lid := uint8(cmd.CDW10 & 0xFF)
	// NUMD (number of dwords, 0-based) spans CDW10 31:16 (+ CDW11 low in
	// NVMe 1.3+; the model supports one-page reads).
	numd := int64(cmd.CDW10>>16) + 1
	n := numd * 4
	if n > PageSize {
		d.complete(c, StatusInvalidField, 0)
		return
	}
	page := make([]byte, PageSize)
	switch lid {
	case LogPageError:
		for i, e := range d.errorLog {
			if (i+1)*64 > len(page) {
				break
			}
			// Newest entry first, per spec.
			marshalErrorEntry(d.errorLog[len(d.errorLog)-1-i], page[i*64:])
			_ = e
		}
	case LogPageSMART:
		// Composite temperature in Kelvin at byte 1 (16-bit).
		binary.LittleEndian.PutUint16(page[1:], 273+40)
		// Data Units Read/Written: 16-byte little-endian counters of
		// thousand-512-byte units, at offsets 32 and 48.
		putUint128(page[32:], uint64(d.dataUnitsRead))
		putUint128(page[48:], uint64(d.dataUnitsWritten))
		// Host read/write commands at offsets 64 and 80.
		putUint128(page[64:], uint64(d.hostReads))
		putUint128(page[80:], uint64(d.hostWrites))
		// Number of error log entries at offset 176.
		putUint128(page[176:], d.errorCount)
	default:
		d.complete(c, StatusInvalidField, 0)
		return
	}
	d.port.Write(cmd.PRP1, n, pcie.Bytes(page[:n]), func() {
		d.complete(c, StatusSuccess, 0)
	})
}

func putUint128(b []byte, v uint64) {
	binary.LittleEndian.PutUint64(b, v)
	for i := 8; i < 16; i++ {
		b[i] = 0
	}
}

// accountIO updates SMART counters (spec: one data unit = 1000 units of
// 512 bytes, rounded up).
func (d *Device) accountIO(op uint8, bytes int64) {
	units := (bytes/512 + 999) / 1000
	if units == 0 {
		units = 1
	}
	if op == OpRead {
		d.hostReads++
		d.dataUnitsRead += units
	} else {
		d.hostWrites++
		d.dataUnitsWritten += units
	}
}
