//go:build race

package bestpeer

func init() { raceEnabled = true }
