//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package harness

// lockFile is a no-op where flock(2) is unavailable: cross-process dedupe
// is off, in-process singleflight and the atomic store still hold.
func lockFile(string) (unlock func(), err error) { return func() {}, nil }
