//go:build race

package spectrum

const raceEnabled = true
