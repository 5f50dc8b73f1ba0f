//go:build !race

package bucket

const raceEnabled = false
