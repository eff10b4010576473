package pcie

import (
	"fmt"
	"sort"
)

// IOMMU validates device-initiated DMA against explicitly granted windows,
// modeling the permission setup SNAcc requires before FPGA↔NVMe peer-to-peer
// traffic works (§4). Windows are granted per initiator name.
type IOMMU struct {
	enabled bool
	// grants maps initiator name to its allow-list. A port holds the list
	// of its name from attach on (Port.grants), so a grant made before or
	// after it attached applies, and checking its DMA hashes no string.
	grants map[string]*grantList
}

// grantList is one initiator's allow-list, sorted by base.
type grantList struct {
	ws []window
}

type window struct {
	base uint64
	size int64
}

// FaultError reports a rejected DMA.
type FaultError struct {
	Initiator string
	Addr      uint64
	Len       int64
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("iommu: %s denied access to [%#x,+%#x)", e.Initiator, e.Addr, e.Len)
}

// NewIOMMU creates an IOMMU; when disabled, Check always passes.
func NewIOMMU(enabled bool) *IOMMU {
	return &IOMMU{enabled: enabled, grants: make(map[string]*grantList)}
}

// Enabled reports whether checks are active.
func (m *IOMMU) Enabled() bool { return m.enabled }

// SetEnabled toggles enforcement (the paper disables the IOMMU in one
// experiment to rule it out as the P2P bottleneck).
func (m *IOMMU) SetEnabled(v bool) { m.enabled = v }

// Grant allows initiator to access [base, base+size).
func (m *IOMMU) Grant(initiator string, base uint64, size int64) {
	if size <= 0 {
		panic("pcie: IOMMU grant with non-positive size")
	}
	l := m.list(initiator)
	ws := append(l.ws, window{base: base, size: size})
	sort.Slice(ws, func(i, j int) bool { return ws[i].base < ws[j].base })
	l.ws = ws
}

// Revoke removes every grant for initiator.
func (m *IOMMU) Revoke(initiator string) {
	if l := m.grants[initiator]; l != nil {
		l.ws = nil
	}
}

// list returns initiator's allow-list, creating an empty one.
func (m *IOMMU) list(initiator string) *grantList {
	l := m.grants[initiator]
	if l == nil {
		l = &grantList{}
		m.grants[initiator] = l
	}
	return l
}

// Check validates an access of n bytes at addr by initiator. The access
// must fall entirely inside a single granted window.
func (m *IOMMU) Check(initiator string, addr uint64, n int64) error {
	return m.check(m.grants[initiator], initiator, addr, n)
}

// check is Check against initiator's allow-list l (nil when it has none).
func (m *IOMMU) check(l *grantList, initiator string, addr uint64, n int64) error {
	if !m.enabled {
		return nil
	}
	if l != nil {
		for _, w := range l.ws {
			if addr >= w.base && addr+uint64(n) <= w.base+uint64(w.size) {
				return nil
			}
		}
	}
	return &FaultError{Initiator: initiator, Addr: addr, Len: n}
}
