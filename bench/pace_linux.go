package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits for the due times of an open loop. The runtime's timers
// wake an idle process up to a millisecond late, which the benchmark would
// then measure as the system's latency. A timerfd fires on the kernel's
// high-resolution clock, and reading it through the runtime's poller parks
// the goroutine without holding a scheduler slot. Spinning on
// runtime.Gosched instead would keep the run queues busy, and the
// scheduler does not poll the network while they are: answers would wait
// up to 10 ms to be noticed. Sleeping in nanosleep would hold the slot,
// leaving the server one fewer to run on.
type pacer struct {
	fd uintptr
	f  *os.File
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes the File use the runtime's poller.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// wait returns once due has passed.
func (p *pacer) wait(due time.Time) error {
	d := time.Until(due)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
