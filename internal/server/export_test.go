package server

import (
	"math"
	"testing"
)

// SetCheckpointBytes makes every namespace built or recovered until t ends
// take n bytes as the size of its checkpoint: its journal is checkpointed
// whenever it reaches n bytes. NoCheckpoints keeps it from ever being.
func SetCheckpointBytes(t testing.TB, n int64) {
	old := ruleBytes
	ruleBytes = func(int64) int64 { return n }
	t.Cleanup(func() { ruleBytes = old })
}

// NoCheckpoints is a checkpoint size no journal reaches.
const NoCheckpoints = math.MaxInt64

// SetWALTailBytes caps every wal response served until t ends at n bytes of
// frames (still at least one record).
func SetWALTailBytes(t testing.TB, n int64) {
	old := maxWALTailBytes
	maxWALTailBytes = n
	t.Cleanup(func() { maxWALTailBytes = old })
}
