//go:build race

package workloads_test

const raceEnabled = true
