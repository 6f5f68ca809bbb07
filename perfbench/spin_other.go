//go:build !linux

package main

// startSpinner does nothing where SCHED_IDLE does not exist; see spin.go.
func startSpinner() (stop func(), err error) { return func() {}, nil }

func spin() int { return 0 }
