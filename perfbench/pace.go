package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a request is due on a Linux timerfd read through
// Go's network poller. The Go timer rounds sub-millisecond sleeps up to a
// millisecond, longer than the requests it paces; a thread sleeping in
// nanosleep holds its P until sysmon notices, which stalls other
// goroutines for up to 10ms. A timerfd fires on a kernel hrtimer with no
// slack, and the goroutine waiting for it holds nothing.
type pacer struct {
	fd  uintptr // kept apart: File.Fd would switch the file to blocking mode
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the poller.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d > 0 (a zero timer would never
// fire).
func (p *pacer) sleep(d time.Duration) error {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
