//go:build !race

package bufpool

const poisonOnPut = false
