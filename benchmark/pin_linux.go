package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// pinProcess confines every thread of this process, and so every thread
// and child process it creates from now on, to one CPU: the highest one
// the process may run on. See README.md, "One CPU", for why the
// benchmark gives up the host's second CPU on purpose. It returns the
// CPU chosen, or -1 where there was only one to begin with.
func pinProcess() (int, error) {
	var mask [16]uint64 // 1024 CPUs, the kernel's cpu_set_t
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu, allowed := -1, 0
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			allowed++
		}
	}
	if allowed < 2 {
		return -1, nil
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// Affinity is per thread and inherited at thread creation. Two passes
	// over the thread list catch a thread that one of the runtime's
	// start-up threads created while the first pass was under way.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return cpu, nil
}

// preciseTimers asks the kernel to fire the calling thread's timers on
// time: by default it may coalesce them with others up to 50 µs later,
// and the generator would have to start its yield-spin — which competes
// with the pool worker for the one CPU — that much earlier.
func preciseTimers() {
	const prSetTimerslack = 29 // PR_SET_TIMERSLACK, in nanoseconds
	// Failure only costs precision; lateness is measured and reported.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// preciseSleep blocks the calling thread in the kernel for d. Go's own
// timers are not used for pacing: when every P is idle the runtime
// waits for its next timer inside epoll_wait, whose timeout is in
// milliseconds, and a time.Sleep meant to end 100 µs before a due time
// ends up to 1 ms after it about once in a hundred sends.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	// An early return (EINTR) is harmless: the caller spins on the clock.
	_ = syscall.Nanosleep(&ts, nil)
}
