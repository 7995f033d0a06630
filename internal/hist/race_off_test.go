//go:build !race

package hist

const raceEnabled = false
