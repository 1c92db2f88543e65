//go:build race

package storage

// raceEnabled is set under the race detector, which drops sync.Pool
// items at random: allocation counts that rest on a pool vary there.
const raceEnabled = true
