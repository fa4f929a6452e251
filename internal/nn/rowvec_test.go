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

// withVectorRows switches the vector row kernels on or off until the test
// ends; a CPU without them skips the "on" half.
func withVectorRows(t *testing.T, on bool) {
	t.Helper()
	vec := rowVec
	if on && vec == nil {
		t.Skip("no vector row kernel on this CPU")
	}
	if !on {
		rowVec = nil
	}
	t.Cleanup(func() { rowVec = vec })
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

// FuzzMaddRowVector holds the vector row kernels to the Go loop bit for
// bit: maddRow's stride-1 case for one to four channels over n ≤ 70
// columns at any offset into the accumulator block, with x read from any
// alignment, and the three-tap kernel to three maddRow calls over the
// multiple-of-4 prefix of the n columns, x read forwards and backwards.
func FuzzMaddRowVector(f *testing.F) {
	vec := rowVec
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
		defer func() { rowVec = vec }()
		for nc := 1; nc <= 4; nc++ {
			want, got := slices.Clone(acc), slices.Clone(acc)
			rowVec = nil
			maddRow(want, at, nc, &wt, x, cols, 1, 1)
			rowVec = vec
			maddRow(got, at, nc, &wt, x, cols, 1, 1)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("nc %d, n %d, off %d: acc[%d] is %#x, the Go loop gives %#x", nc, cols, at, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		m := cols &^ 3
		if m == 0 {
			return
		}
		var wt3 [12]float64
		for i := range wt3 {
			wt3[i] = next()
		}
		x3 := make([]float64, m+5)[off%4:]
		for j := range x3 {
			x3[j] = next()
		}
		for _, rev := range []bool{false, true} {
			want, got := slices.Clone(acc), slices.Clone(acc)
			rowVec = nil
			for i := 0; i < 3; i++ {
				from := i
				if rev {
					from = 2 - i
				}
				maddRow(want, at, 4, (*[4]float64)(wt3[4*i:]), x3[from:], m, 1, 1)
			}
			rowVec = vec
			vec.madd4x3(got[at:at+3*rowStride+m], &wt3, x3[:m+2], rev)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("three taps (rev %v), n %d, off %d: acc[%d] is %#x, three maddRow calls give %#x", rev, m, at, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// FuzzStagedRows holds the stride-1 row kernel to the direct nests on a
// fuzzed geometry, 2D or 3D, with fuzzed values: correlate with the bias
// first, last or absent, and the adjoint. The weights are kept finite and
// the bias off −0, the two cases where the staged kernel's padding terms
// show (convdirect.go, and the special-value rows of
// TestRowKernelsMatchDirectNests); the inputs may be anything. The row kernel
// must give the nests' bits, except that two NaNs count as equal: with a
// NaN on both sides of an add, the payload that survives depends on the
// operand order the compiler picked, which neither side pins. With and
// without the vector kernels, the row kernel's bits must agree exactly.
func FuzzStagedRows(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0x2_0b5f), []byte("\x01\x3f\xf8\x00\x00\x00\x00\x00\x00\x04"))
	f.Add(uint32(0xf_ffff), []byte("\x08\x0a\x0c\x01\xbc\x9a\x78\x56\x34\x12\xf8\x7f"))
	vec := rowVec
	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		// field takes the next digit of shape in base n.
		field := func(n uint32) int {
			v := int(shape % n)
			shape /= n
			return v
		}
		n, ci, co, k := 1+field(2), 1+field(3), 1+field(6), 1+field(3)
		p, d, h, w := field(uint32(k)), 1+field(4), 1+field(6), 1+field(12)
		kd, pd := 1, 0
		if field(2) == 1 {
			kd, pd = k, p
		}
		biasAt := field(3) // none, first, last
		g := kernelGeom(n, ci, d, h, w, kd, k, pd, p, 1)
		g.co = co
		if g.do <= 0 || g.ho <= 0 || g.wo <= 0 {
			return
		}
		next := fuzzValues(data)
		draw := func(m int, keep func(float64) float64) []float64 {
			v := make([]float64, m)
			for i := range v {
				v[i] = keep(next())
			}
			return v
		}
		asIs := func(v float64) float64 { return v }
		wd := draw(co*g.rows(), func(v float64) float64 {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return 0.5
			}
			return v
		})
		bias := draw(max(ci, co), func(v float64) float64 { return v + 0 }) // −0 + 0 is +0
		xd := draw(n*ci*d*h*w, asIs)
		yd := draw(n*co*g.do*g.ho*g.wo, asIs)
		defer func() { rowVec = vec }()
		check := func(what string, want []float64, run func(out []float64)) {
			rowVec = nil
			got := make([]float64, len(want))
			run(got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("%+v %s: element %d is %#x, the direct nest gives %#x", g, what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			if vec == nil {
				return
			}
			rowVec = vec
			gotVec := make([]float64, len(want))
			run(gotVec)
			for i := range got {
				if math.Float64bits(gotVec[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%+v %s: element %d is %#x with the vector kernels, %#x without", g, what, i, math.Float64bits(gotVec[i]), math.Float64bits(got[i]))
				}
			}
		}

		want := make([]float64, len(yd))
		var b []float64
		if biasAt == 1 {
			b = bias[:co]
		}
		directCorrelate(want, xd, wd, b, g)
		if biasAt == 2 {
			vol := g.do * g.ho * g.wo
			for i := range want {
				want[i] += bias[i/vol%co]
			}
			b = bias[:co]
		}
		check("correlate", want, func(out []float64) { correlateRows(out, xd, wd, b, g, biasAt == 2) })

		want = make([]float64, len(xd))
		b = nil
		if biasAt != 0 {
			b = bias[:ci]
		}
		directAdjoint(want, yd, wd, b, g)
		check("adjoint", want, func(out []float64) { adjointRows(out, yd, wd, b, g) })
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
