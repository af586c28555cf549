package netsrv

import (
	"os"
	"testing"

	"twodcache/internal/bufpool"
)

// TestMain turns on bufpool's check mode for the race-enabled run, so a
// use-after-Put or double Put of a wire buffer panics where it happens.
// The plain run keeps the lock-free pools the alloc pins measure.
func TestMain(m *testing.M) {
	if raceEnabled {
		bufpool.SetCheck(true)
	}
	os.Exit(m.Run())
}
