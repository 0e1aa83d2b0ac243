package core

import (
	"testing"

	"skalla/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines of this module
// running (leakcheck.Main).
func TestMain(m *testing.M) { leakcheck.Main(m) }
