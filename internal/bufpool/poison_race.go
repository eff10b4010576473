//go:build race

package bufpool

// Race builds poison every buffer handed back to the pool, so a holder that
// keeps using a buffer after Put reads poisonByte instead of stale bytes
// that still happen to be right, and the integrity tests flag the mismatch.
const poisonOnPut = true
