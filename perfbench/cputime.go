package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU returns the CPU time the calling OS thread has used. The
// load goroutine is locked to its thread, so differences of threadCPU
// time the program's calls without the time the hypervisor ran other
// guests on this CPU (steal, which a paravirtual kernel leaves out of
// thread CPU time) and without time spent waiting.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
