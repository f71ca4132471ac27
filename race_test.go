//go:build race

package repro

func init() { raceFlags = []string{"-race"} }
