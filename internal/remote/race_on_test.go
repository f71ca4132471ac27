//go:build race

package remote

// raceEnabled reports a -race build, where sync.Pool drops a random quarter
// of what is put back and exact allocation counts do not repeat.
const raceEnabled = true
