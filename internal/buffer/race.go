//go:build race

package buffer

// raceEnabled turns on frame poisoning (see PoisonByte).
const raceEnabled = true
