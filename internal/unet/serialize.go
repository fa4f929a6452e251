package unet

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// snapshot is the gob wire format of a trained network: the architecture
// config, the number of adaptation stages to replay, every parameter
// tensor, and the batch-norm running statistics.
type snapshot struct {
	Cfg       Config
	Adaptions int
	Params    [][]float64
	BNMeans   [][]float64
	BNVars    [][]float64
}

// Save serializes the network (weights, adaptation structure and batch-norm
// statistics) so cmd/mginfer can reload it.
func (u *UNet) Save(w io.Writer) error {
	s := snapshot{Cfg: u.Cfg, Adaptions: u.adaptions}
	for _, p := range u.Params() {
		buf := make([]float64, p.Data.Len())
		copy(buf, p.Data.Data)
		s.Params = append(s.Params, buf)
	}
	for _, bn := range collectBN(u) {
		m := make([]float64, len(bn.RunningMean))
		v := make([]float64, len(bn.RunningVar))
		copy(m, bn.RunningMean)
		copy(v, bn.RunningVar)
		s.BNMeans = append(s.BNMeans, m)
		s.BNVars = append(s.BNVars, v)
	}
	return gob.NewEncoder(w).Encode(&s)
}

// Load reconstructs a network saved with Save.
func Load(r io.Reader) (*UNet, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("unet: decode snapshot: %w", err)
	}
	if err := s.Cfg.validate(); err != nil {
		return nil, fmt.Errorf("unet: snapshot config: %w", err)
	}
	n := 0
	for _, p := range s.Params {
		n += len(p)
	}
	if !bottleneckFits(s.Cfg, n) {
		return nil, fmt.Errorf("unet: snapshot config (Depth %d, BaseFilters %d, Kernel %d) needs more weights than the %d values it carries",
			s.Cfg.Depth, s.Cfg.BaseFilters, s.Cfg.Kernel, n)
	}
	// Every adaptation adds parameter tensors, so a count beyond the
	// number of tensors saved can never match.
	if s.Adaptions < 0 || s.Adaptions > len(s.Params) {
		return nil, fmt.Errorf("unet: snapshot has %d adaptations, want 0..%d", s.Adaptions, len(s.Params))
	}
	u := New(s.Cfg)
	for i := 0; i < s.Adaptions; i++ {
		u.Adapt()
	}
	ps := u.Params()
	if len(ps) != len(s.Params) {
		return nil, fmt.Errorf("unet: snapshot has %d parameter tensors, architecture expects %d", len(s.Params), len(ps))
	}
	for i, p := range ps {
		if len(s.Params[i]) != p.Data.Len() {
			return nil, fmt.Errorf("unet: parameter %d length %d, want %d", i, len(s.Params[i]), p.Data.Len())
		}
		copy(p.Data.Data, s.Params[i])
	}
	bns := collectBN(u)
	if len(bns) != len(s.BNMeans) || len(bns) != len(s.BNVars) {
		return nil, fmt.Errorf("unet: snapshot has %d mean / %d variance batch-norm vectors, architecture expects %d",
			len(s.BNMeans), len(s.BNVars), len(bns))
	}
	// Validate every length before copying anything: a mismatched or
	// corrupt snapshot must be rejected whole, not half-loaded.
	for i, bn := range bns {
		if len(s.BNMeans[i]) != bn.C || len(s.BNVars[i]) != bn.C {
			return nil, fmt.Errorf("unet: batch-norm layer %d has %d-channel means and %d-channel variances, want %d",
				i, len(s.BNMeans[i]), len(s.BNVars[i]), bn.C)
		}
	}
	for i, bn := range bns {
		copy(bn.RunningMean, s.BNMeans[i])
		copy(bn.RunningVar, s.BNVars[i])
	}
	return u, nil
}

// bottleneckFits reports whether the bottleneck convolution of cfg — its
// (BaseFilters<<(Depth-1)) · (BaseFilters<<Depth) · Kernel^Dim weights,
// one tensor of the network — fits in n values. Checking before New runs
// keeps a corrupt Depth or Kernel from allocating without bound.
func bottleneckFits(cfg Config, n int) bool {
	c := cfg.BaseFilters
	for i := 1; i < cfg.Depth && c <= n; i++ {
		c *= 2
	}
	factors := []int{c, 2 * c}
	for i := 0; i < cfg.Dim; i++ {
		factors = append(factors, cfg.Kernel)
	}
	w := 1
	for _, f := range factors {
		if f > n/w {
			return false
		}
		w *= f
	}
	return true
}

// SaveFile writes the network to path. The Close error is propagated: a
// full disk or I/O failure may only surface at close, and dropping it
// would report a truncated weights file as saved.
func (u *UNet) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return u.Save(f)
}

// LoadFile reads a network from path.
func LoadFile(path string) (*UNet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
