//go:build race

package nvme

// Race builds check the recycled command structs (command.go): a stage that
// fires on a released command, or a second release, panics.
const checkReleased = true
