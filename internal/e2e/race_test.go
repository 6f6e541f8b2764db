//go:build race

package e2e

// raceEnabled reports that this test binary runs under the race
// detector, so startServer builds rpserved with it too.
const raceEnabled = true
