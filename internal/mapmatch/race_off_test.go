//go:build !race

package mapmatch

const raceEnabled = false
