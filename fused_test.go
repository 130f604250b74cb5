package fncc

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fusingArches are the targets whose compilers turn x*y + z into one fused
// multiply-add. amd64 never does, so only a cross build can see them.
var fusingArches = []string{"arm64", "ppc64le", "s390x", "riscv64"}

// fusedOp matches one fused instruction in `go build -gcflags=-S` output,
// capturing its source position: the FMADD/FMSUB/FNMADD/FNMSUB families with
// any precision suffix, on every target above.
var fusedOp = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[A-Z]*)\s`)

// TestNoFusedMultiplyAdd is the guard behind DESIGN.md's explicit-rounding
// rule: a result must not depend on the machine, and the Go spec lets a
// compiler fuse x*y + z (one rounding instead of two) unless the product is
// wrapped in an explicit float64(...) conversion. It cross-compiles every
// simulation package for each fusing target and fails on any fused
// instruction, naming its file:line.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the simulation packages for four targets")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range fusingArches {
		cmd := exec.Command(gobin, "build", "-gcflags=-S", "./internal/...")
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, tail(out))
		}
		sites := map[string][]string{}
		for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
			pos := m[1]
			if rel, err := filepath.Rel(root, pos); err == nil && !strings.HasPrefix(rel, "..") {
				pos = rel
			}
			sites[pos] = append(sites[pos], m[2])
		}
		if len(sites) == 0 {
			continue
		}
		lines := make([]string, 0, len(sites))
		for pos, ops := range sites {
			lines = append(lines, fmt.Sprintf("  %s: %s", pos, strings.Join(ops, " ")))
		}
		sort.Strings(lines)
		t.Errorf("GOARCH=%s fuses %d source lines; wrap the product in float64(...):\n%s",
			arch, len(sites), strings.Join(lines, "\n"))
	}
}

// tail returns the last lines of a failed build's output.
func tail(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return strings.Join(lines[max(0, len(lines)-20):], "\n")
}
