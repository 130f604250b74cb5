//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package harness

import "os"

// lockFile is a no-op where flock(2) is unavailable: cross-process dedupe
// is off, in-process singleflight and the atomic store still hold.
func lockFile(string) (unlock func(), err error) { return func() {}, nil }

// readEntry reads the file at path. The unix build reads into buf, to reuse
// it across cache hits; os.ReadFile takes no buffer.
func readEntry(path string, _ []byte) ([]byte, error) { return os.ReadFile(path) }
