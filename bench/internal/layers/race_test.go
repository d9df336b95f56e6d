//go:build race

package layers

func init() { raceEnabled = true }
