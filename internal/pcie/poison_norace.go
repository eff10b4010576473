//go:build !race

package pcie

const poisonOnRelease = false
