//go:build race

package pcie

// Race builds poison every page whose last reference is released, so a
// holder that keeps reading a page after giving it back reads poisonByte,
// and the byte-checked integrity tests flag the mismatch.
const poisonOnRelease = true

// Race builds also check the pooled transaction structs (pool.go): a stage
// that fires on a released struct, or a second release, panics.
const checkReleased = true
