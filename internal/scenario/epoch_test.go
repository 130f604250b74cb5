package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenDigest is a golden table's digest as goldensAtEpoch records it: the
// first 16 hex digits of the SHA-256 of its lines, spec hash lines left out.
func goldenDigest(data []byte) string {
	h := sha256.New()
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("hash sc-")) {
			h.Write(line)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestCacheEpochCoversGoldens is the check behind cacheEpoch: cached results
// are keyed by a hash salted with it, so a change that moves a pinned number
// without bumping it would let the harness and the sweep service serve the
// old number. Every golden table must read what goldensAtEpoch recorded at
// the current epoch.
func TestCacheEpochCoversGoldens(t *testing.T) {
	paths, err := filepath.Glob("testdata/golden_*.txt")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden tables found (%v)", err)
	}
	got := map[string]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(path)] = goldenDigest(data)
	}
	rec := goldensAtEpoch
	if rec.epoch != cacheEpoch {
		t.Fatalf("cacheEpoch is %q but goldensAtEpoch was recorded at %q: record the epoch and these digests with it: %v",
			cacheEpoch, rec.epoch, got)
	}
	for name, digest := range got {
		switch want, ok := rec.digests[name]; {
		case !ok:
			t.Errorf("%s has no digest in goldensAtEpoch; record %s", name, digest)
		case digest != want:
			t.Errorf("%s moved (digest %s, recorded %s) but cacheEpoch is still %q: bump cacheEpoch and record the new digest with it",
				name, digest, want, cacheEpoch)
		}
	}
	for name := range rec.digests {
		if _, ok := got[name]; !ok {
			t.Errorf("goldensAtEpoch records %s, which is not in testdata", name)
		}
	}
}
