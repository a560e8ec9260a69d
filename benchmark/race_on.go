//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; its
// slowdown makes every timing meaningless.
const raceEnabled = true
