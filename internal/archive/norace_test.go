//go:build !race

package archive

const raceEnabled = false
