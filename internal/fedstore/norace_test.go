//go:build !race

package fedstore

const raceEnabled = false
