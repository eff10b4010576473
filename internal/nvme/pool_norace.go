//go:build !race

package nvme

const checkReleased = false
