package main

import (
	"syscall"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow reads the process's CPU time in ns. Host time is measured in
// CPU time rather than wall time: the simulator never waits on the
// host, so the two differ only by the time the machine ran something
// else — on a virtual machine mostly time its CPU was stolen by the
// hypervisor, which the guest kernel leaves out of CPU time.
func cpuNow() int64 {
	var ts syscall.Timespec
	// RawSyscall: the call cannot block, and the Go scheduler must not
	// hand the P to another thread around it.
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return ts.Nano()
}
