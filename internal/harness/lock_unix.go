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

// readEntry reads the file at path into buf[:0], growing it as needed, and
// returns the bytes read: buf itself when they fit, so a caller that keeps
// the result's array reads the next file without allocating. It is one open,
// one read and one close for a file shorter than buf's capacity — none of
// os.ReadFile's poller registration, fstat or finalizer. A read that leaves
// room in buf ends it: on a regular file a read comes back short only at its
// end, and should one be cut short otherwise, no proper prefix of a cache
// entry decodes, so the cut is a miss, never a wrong result.
func readEntry(path string, buf []byte) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return buf, &os.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return buf, &os.PathError{Op: "read", Path: path, Err: err}
		}
		buf = buf[:len(buf)+n]
		if len(buf) < cap(buf) {
			return buf, nil
		}
	}
}
