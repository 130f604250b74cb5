//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package harness

import (
	"os"
	"syscall"
)

// lockFile opens path (creating it if needed) and blocks until this open
// file holds an exclusive flock(2) on it; the returned func releases the
// lock by closing the file. The kernel does the same when the holder exits
// or is killed, so there is no stale lock to detect. The lock belongs to
// the open file, not the process: two Runners in one process exclude each
// other exactly as two processes do.
func lockFile(path string) (unlock func(), err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	for {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		f.Close()
		return nil, &os.PathError{Op: "flock", Path: path, Err: err}
	}
	return func() { f.Close() }, nil
}
