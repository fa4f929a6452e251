package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func vectorName(on bool) string {
	if on {
		return "vector"
	}
	return "go"
}

// withVectorRows switches the vector row kernel on or off until the test
// ends; a CPU without one skips the "on" half.
func withVectorRows(t *testing.T, on bool) {
	t.Helper()
	vec := maddRowVec
	if on && vec == nil {
		t.Skip("no vector row kernel on this CPU")
	}
	if !on {
		maddRowVec = nil
	}
	t.Cleanup(func() { maddRowVec = vec })
}

// fuzzSpecials are the values an arithmetic kernel most often gets wrong.
var fuzzSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff80000deadbeef), // negative quiet NaN with a payload
	math.SmallestNonzeroFloat64, -0x1p-1030, 0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e-300, 1, -0.5,
}

// fuzzValues draws values from data, nine bytes each, cycling: the first
// byte picks a special value or, when odd, the raw bits of the next eight.
func fuzzValues(data []byte) func() float64 {
	i := 0
	return func() float64 {
		if len(data) == 0 {
			return 0
		}
		var b [9]byte
		for k := range b {
			b[k] = data[i%len(data)]
			i++
		}
		if b[0]&1 == 0 {
			return fuzzSpecials[int(b[0]>>1)%len(fuzzSpecials)]
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))
	}
}

// FuzzMaddRowVector holds the vector row kernel to the Go loop bit for bit:
// maddRow's stride-1 four-channel case over n ≤ 70 columns at any offset
// into the accumulator block, with x read from any alignment.
func FuzzMaddRowVector(f *testing.F) {
	vec := maddRowVec
	if vec == nil {
		f.Skip("no vector row kernel on this CPU")
	}
	f.Fuzz(func(t *testing.T, n, off uint8, data []byte) {
		cols := int(n) % 71
		at := int(off) % (rowStride - cols + 1)
		next := fuzzValues(data)
		var wt [4]float64
		for c := range wt {
			wt[c] = next()
		}
		x := make([]float64, cols+3)[off%4:]
		for j := range x {
			x[j] = next()
		}
		acc := make([]float64, 4*rowStride)
		for i := range acc {
			acc[i] = next()
		}
		want := slices.Clone(acc)
		defer func() { maddRowVec = vec }()
		maddRowVec = nil
		maddRow(want, at, 4, &wt, x, cols, 1, 1)
		maddRowVec = vec
		maddRow(acc, at, 4, &wt, x, cols, 1, 1)
		for i := range acc {
			if math.Float64bits(acc[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n %d, off %d: acc[%d] is %#x, the Go loop gives %#x", cols, at, i, math.Float64bits(acc[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// No row kernel may fuse a multiply and an add: a fused w·x + a rounds
// once where the loop rounds twice, and the bits would then depend on the
// architecture. The Go loops write every product as float64(w·x), which
// the compiler may not fuse; this compiles the package for arm64, where it
// fuses otherwise, and reads the disassembly of convdirect.go. The vector
// kernel must not use VFMADD either.
func TestRowKernelsFuseNoMultiplyAdd(t *testing.T) {
	src, err := os.ReadFile("convdirect_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(src, []byte("VFMADD")) {
		t.Error("convdirect_amd64.s uses a VFMADD instruction")
	}
	if testing.Short() {
		t.Skip("cross-compiles the package for arm64")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	bin := filepath.Join(t.TempDir(), "nn_arm64.test")
	build := exec.Command(goBin, "test", "-c", "-o", bin, ".")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	out, err := exec.Command(goBin, "tool", "objdump", "-s", `^mgdiffnet/internal/nn\.`, bin).Output()
	if err != nil {
		t.Fatalf("objdump: %v", err)
	}
	fused := regexp.MustCompile(`^FN?M(ADD|SUB)`)
	var muls, fusedLines []string
	for _, line := range strings.Split(string(out), "\n") {
		// file:line  address  encoding  mnemonic operands...
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "convdirect.go:") {
			continue
		}
		switch {
		case fused.MatchString(f[3]):
			fusedLines = append(fusedLines, strings.TrimSpace(line))
		case strings.HasPrefix(f[3], "FMUL"):
			muls = append(muls, f[0])
		}
	}
	if len(muls) == 0 {
		t.Fatal("found no FMUL attributed to convdirect.go: the disassembly format changed")
	}
	for _, l := range fusedLines {
		t.Errorf("fused multiply-add in the arm64 row kernels: %s", l)
	}
}
