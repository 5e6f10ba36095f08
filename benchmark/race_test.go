//go:build race

package main

// Under -race the harness must not take registry snapshots while queries
// run; see fleet.queueDepth.
func init() { raceDetector = true }
