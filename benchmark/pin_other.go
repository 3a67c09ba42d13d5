//go:build !linux

package main

import "time"

// Without Linux's affinity and nanosleep calls the benchmark still
// runs; its numbers are then as noisy as the host.
func pinProcess() (int, error) { return -1, nil }

func preciseTimers() {}

func preciseSleep(d time.Duration) { time.Sleep(d) }
