//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: a thread under it runs only
// when no other thread wants the processor, and any waking thread
// preempts it at once.
const schedIdle = 5

// startSpinner starts a child process that keeps every processor busy at
// SCHED_IDLE priority for the length of the run, and returns the function
// that stops it and waits for it to end. On a virtual machine a processor
// with nothing to run halts, and a request that arrives for it waits until
// the hypervisor runs that virtual processor again; how long that takes
// depends on the other tenants of the host, and it made the 90th
// percentile latency of a lightly loaded program spread across runs by
// more than its own median. The spinner keeps the processors from
// halting, as the kernel's idle=poll would, while taking no processor
// time the program wants. Where the policy cannot be set, the child exits
// at once and the run goes on without it.
func startSpinner() (stop func(), err error) {
	cmd := exec.Command(os.Args[0], "--spin")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		cmd.Process.Kill()
		cmd.Wait()
	}, nil
}

// spin is the spinner child: one busy thread per processor, each under
// SCHED_IDLE, until it is killed.
func spin() int {
	n := runtime.NumCPU()
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			param := [1]int32{0} // sched_priority, 0 under SCHED_IDLE
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle,
				uintptr(unsafe.Pointer(&param[0]))); e != 0 {
				fmt.Fprintln(os.Stderr, "perfbench: spinner:", e)
				os.Exit(0)
			}
			for {
			}
		}()
	}
	select {}
}
