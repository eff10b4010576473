//go:build race

package nvme

// Race builds check the recycled command and SQE-fetch structs
// (command.go): a stage that fires on a released struct, or a second
// release, panics, and release poisons the struct's owned buffer.
const checkReleased = true
