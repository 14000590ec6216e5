//go:build race

package scalable

// The race detector slows the pipeline several fold; the wall-clock bounds
// of the stall tests scale with it.
func init() { raceSlowdown = 4 }
