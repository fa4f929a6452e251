package unet

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// trainedNet builds a small 3D network, adapts it twice, and runs a
// training pass so weights, adaptation structure, and batch-norm running
// statistics are all off their defaults.
func trainedNet(t *testing.T) *UNet {
	t.Helper()
	cfg := DefaultConfig(3)
	cfg.BaseFilters = 2
	cfg.Depth = 1
	u := New(cfg)
	u.Adapt()
	u.Adapt()
	rng := rand.New(rand.NewSource(90))
	for _, p := range u.Params() {
		for i := range p.Data.Data {
			p.Data.Data[i] += 0.05 * rng.NormFloat64()
		}
	}
	u.Forward(randInput(rng, 1, 1, 8, 8, 8), true)
	return u
}

// corruptedSnapshot saves u, decodes the raw snapshot, lets mutate corrupt
// it, and re-encodes it for Load.
func corruptedSnapshot(t *testing.T, u *UNet, mutate func(*snapshot)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var s snapshot
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		t.Fatal(err)
	}
	mutate(&s)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&s); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestSaveLoadRoundTripAdapted3D(t *testing.T) {
	u := trainedNet(t)
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	x := randInput(rng, 1, 1, 8, 8, 8)
	if d := u.Forward(x, false).RMSE(v.Forward(x, false)); d != 0 {
		t.Fatalf("loaded adapted network differs: RMSE %v", d)
	}
	// Running statistics must round-trip too, not just weights.
	ub, vb := collectBN(u), collectBN(v)
	for i := range ub {
		for j := range ub[i].RunningMean {
			if ub[i].RunningMean[j] != vb[i].RunningMean[j] || ub[i].RunningVar[j] != vb[i].RunningVar[j] {
				t.Fatalf("batch-norm stats %d differ after round trip", i)
			}
		}
	}
}

func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	u := trainedNet(t)
	cases := map[string]struct {
		mutate  func(*snapshot)
		errWant string
	}{
		"missing param tensor": {
			func(s *snapshot) { s.Params = s.Params[:len(s.Params)-1] },
			"parameter tensors",
		},
		"wrong param length": {
			func(s *snapshot) { s.Params[0] = s.Params[0][:len(s.Params[0])-1] },
			"length",
		},
		"missing bn means": {
			func(s *snapshot) { s.BNMeans = s.BNMeans[:len(s.BNMeans)-1] },
			"batch-norm",
		},
		"missing bn vars": {
			func(s *snapshot) { s.BNVars = s.BNVars[:len(s.BNVars)-1] },
			"batch-norm",
		},
		"short bn means": {
			func(s *snapshot) { s.BNMeans[0] = s.BNMeans[0][:len(s.BNMeans[0])-1] },
			"channel",
		},
		"long bn vars": {
			func(s *snapshot) { s.BNVars[0] = append(s.BNVars[0], 1) },
			"channel",
		},
		// Configs New would panic on, and counts that cannot match, are
		// rejected before anything is built.
		"dim 7":                  {func(s *snapshot) { s.Cfg.Dim = 7 }, "Dim"},
		"depth 0":                {func(s *snapshot) { s.Cfg.Depth = 0 }, "Depth"},
		"even kernel":            {func(s *snapshot) { s.Cfg.Kernel = 2 }, "Kernel"},
		"negative kernel":        {func(s *snapshot) { s.Cfg.Kernel = -1 }, "Kernel"},
		"kernel beyond snapshot": {func(s *snapshot) { s.Cfg.Kernel = 100001 }, "weights"},
		"huge input channels":    {func(s *snapshot) { s.Cfg.InChannels = 10_000_000 }, "weights"},
		"huge output channels":   {func(s *snapshot) { s.Cfg.OutChannels = 10_000_000 }, "weights"},
		"max input channels":     {func(s *snapshot) { s.Cfg.InChannels = math.MaxInt }, "weights"},
		"max output channels":    {func(s *snapshot) { s.Cfg.OutChannels = math.MaxInt }, "weights"},
		"max base filters":       {func(s *snapshot) { s.Cfg.BaseFilters = math.MaxInt }, "weights"},
		"max depth":              {func(s *snapshot) { s.Cfg.Depth = math.MaxInt }, "weights"},
		"max kernel":             {func(s *snapshot) { s.Cfg.Kernel = math.MaxInt }, "weights"},
		"huge adaptations":       {func(s *snapshot) { s.Adaptions = len(s.Params) }, "weights"},
		"negative base filters":  {func(s *snapshot) { s.Cfg.BaseFilters = -4 }, "BaseFilters"},
		"zero input channels":    {func(s *snapshot) { s.Cfg.InChannels = 0 }, "InChannels"},
		"zero output channels":   {func(s *snapshot) { s.Cfg.OutChannels = 0 }, "OutChannels"},
		"negative adaptations":   {func(s *snapshot) { s.Adaptions = -1 }, "adaptations"},
		"adaptations beyond":     {func(s *snapshot) { s.Adaptions = len(s.Params) + 1 }, "adaptations"},
	}
	for name, tc := range cases {
		buf := corruptedSnapshot(t, u, tc.mutate)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := Load(buf)
		runtime.ReadMemStats(&after)
		// A rejected snapshot of ~1k values must not first build a
		// network sized by its claimed counts.
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Errorf("%s: Load allocated %d bytes before rejecting", name, got)
		}
		if err == nil {
			t.Errorf("%s: corrupt snapshot loaded without error", name)
			continue
		}
		if v != nil {
			t.Errorf("%s: Load returned a network alongside the error", name)
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.errWant)
		}
	}
}

// TestParamCountMatchesNetwork holds the pre-allocation count Load bounds
// snapshots with to the parameters New and Adapt actually build.
func TestParamCountMatchesNetwork(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, bn := range []bool{false, true} {
			for _, depth := range []int{1, 2, 3} {
				cfg := DefaultConfig(dim)
				cfg.BaseFilters, cfg.Depth, cfg.BatchNorm = 2, depth, bn
				cfg.InChannels, cfg.OutChannels = 3, 2
				u := New(cfg)
				for k := 0; k < 3; k++ {
					if k > 0 {
						u.Adapt()
					}
					want := u.ParamCount()
					if got := paramCount(cfg, k, want); got != want {
						t.Fatalf("dim %d bn %v depth %d adaptations %d: paramCount %d, network has %d", dim, bn, depth, k, got, want)
					}
					if got := paramCount(cfg, k, want-1); got != want {
						t.Fatalf("dim %d bn %v depth %d adaptations %d: paramCount below the count = %d, want limit+1 = %d", dim, bn, depth, k, got, want)
					}
				}
			}
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load, seeded with a saved 2D and a
// saved 3D network (testdata/fuzz/FuzzLoad). Load must return an error or
// a network, never panic.
func FuzzLoad(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzLoad", "*"))
	if err != nil || len(seeds) < 2 {
		f.Fatalf("want the 2D and 3D seed snapshots under testdata/fuzz/FuzzLoad, got %v (%v)", seeds, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := Load(bytes.NewReader(data))
		if (u == nil) == (err == nil) {
			t.Fatalf("Load returned network %v with error %v", u != nil, err)
		}
	})
}
