package client

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool
