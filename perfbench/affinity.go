package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

func getAffinity() (cpuSet, bool) {
	var set cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	return set, e == 0
}

// cpus lists the CPUs in the set.
func (s *cpuSet) cpus() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// setProcessAffinity binds every thread of the process to set. Threads
// the Go runtime starts later inherit the mask of the thread that
// starts them, which is then one of these.
func setProcessAffinity(set *cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the listing is not an error.
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set))); e != 0 && e != syscall.ESRCH {
			return e
		}
	}
	return nil
}

// pinProcess binds the process to one CPU.
func pinProcess(cpu int) error {
	var set cpuSet
	set[cpu/64] |= 1 << (cpu % 64)
	return setProcessAffinity(&set)
}
