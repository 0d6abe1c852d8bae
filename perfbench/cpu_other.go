//go:build !linux

package main

import "time"

// cpuNow falls back to wall time where the process CPU clock is not
// wired up.
func cpuNow() int64 { return time.Now().UnixNano() }
