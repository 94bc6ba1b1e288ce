package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask for up to 1024 CPUs.
type cpuMask [1024 / 64]uint64

func maskOf(cpu int) *cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return &m
}

func setAffinity(tid int, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// bindCPUs binds every thread of this process to the first CPU it may run
// on and sets GOMAXPROCS to 1, and returns that CPU and the second, which is
// fairrankd's. With the generator and the server on the same cores, the
// generator's reads and the server's handlers wait on each other's time
// slices, and the tail latency shows the host's scheduler; split, each has
// a core of its own.
func bindCPUs() (gen, srv int, err error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return -1, -1, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var allowed []int
	for i := 0; i < len(m)*64 && len(allowed) < 2; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			allowed = append(allowed, i)
		}
	}
	if len(allowed) < 2 {
		return -1, -1, fmt.Errorf("only %d CPU", len(allowed))
	}
	runtime.GOMAXPROCS(1)
	// A thread the runtime starts while the list is read inherits the mask
	// of its creator, which may not be set yet; a second pass catches it.
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, -1, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, maskOf(allowed[0])); err != nil && err != syscall.ESRCH {
				return -1, -1, fmt.Errorf("sched_setaffinity %d: %w", tid, err)
			}
		}
	}
	return allowed[0], allowed[1], nil
}

// onServerCPU runs f on a thread bound to fairrankd's CPU: a child started
// there inherits the binding, and a calibration pass there measures the
// core fairrankd runs on. Unbound, f runs where it is.
func (e env) onServerCPU(f func()) {
	if e.ServerCPU < 0 {
		f()
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, maskOf(e.ServerCPU)); err != nil {
		f()
		return
	}
	defer setAffinity(0, maskOf(e.GeneratorCPU))
	f()
}
