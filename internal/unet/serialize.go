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
	// Every adaptation adds parameter tensors, so a count beyond the
	// number of tensors saved can never match.
	if s.Adaptions < 0 || s.Adaptions > len(s.Params) {
		return nil, fmt.Errorf("unet: snapshot has %d adaptations, want 0..%d", s.Adaptions, len(s.Params))
	}
	n := 0
	for _, p := range s.Params {
		n += len(p)
	}
	// Bound what New and the Adapt replay allocate by the values carried.
	// The slack of 2n lets a snapshot that is merely short a tensor or a
	// value reach the exact checks below, which name what is missing.
	if paramCount(s.Cfg, s.Adaptions, 2*n) > 2*n {
		return nil, fmt.Errorf("unet: snapshot config (Dim %d, Depth %d, BaseFilters %d, Kernel %d, InChannels %d, OutChannels %d, %d adaptations) needs far more weights than the %d values it carries",
			s.Cfg.Dim, s.Cfg.Depth, s.Cfg.BaseFilters, s.Cfg.Kernel, s.Cfg.InChannels, s.Cfg.OutChannels, s.Adaptions, n)
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

// paramCount returns the number of parameter values New(cfg) followed by
// adaptions Adapt calls holds, or limit+1 once that count passes limit.
// Load runs it before New with a limit proportional to the values the
// snapshot carries, so a corrupt channel count, Depth, Kernel or
// adaptation count is rejected before anything proportional to it is
// allocated. Every sum and product saturates at limit+1, so no count
// overflows, however large the config's values.
func paramCount(cfg Config, adaptions, limit int) int {
	over := limit + 1
	mul := func(a, b int) int { // a·b saturated at over; a ≥ 0, b ≥ 1
		if a > over/b {
			return over
		}
		return a * b
	}
	add := func(a, b int) int { // a+b saturated at over; 0 ≤ a ≤ over, b ≥ 0
		if b >= over-a {
			return over
		}
		return a + b
	}
	total := 0
	// conv adds one in→out convolution with a kw^Dim kernel and its bias.
	conv := func(in, out, kw int) {
		w := mul(in, out)
		for range cfg.Dim {
			w = mul(w, kw)
		}
		total = add(add(total, w), out)
	}
	// block adds a convolution plus its batch-norm scale and shift.
	block := func(in, out int) {
		conv(in, out, cfg.Kernel)
		if cfg.BatchNorm {
			total = add(total, mul(out, 2))
		}
	}
	ch := func(l int) int { // BaseFilters<<l, saturated
		c := cfg.BaseFilters
		for i := 0; i < l && c < over; i++ {
			c = mul(c, 2)
		}
		return c
	}
	prev := cfg.InChannels
	for l := 0; l < cfg.Depth && total < over; l++ {
		block(prev, ch(l))
		prev = ch(l)
	}
	block(prev, ch(cfg.Depth))
	for l := cfg.Depth - 1; l >= 0 && total < over; l-- {
		conv(ch(l+1), ch(l), 2)
		block(mul(ch(l), 2), ch(l))
	}
	conv(cfg.BaseFilters, cfg.OutChannels, 1)
	// Each Adapt adds a convolution and two transpose convolutions and
	// drops the previous call's last layer: 2k+1 layers after k ≥ 1 calls.
	for i := 0; adaptions > 0 && i < 2*adaptions+1 && total < over; i++ {
		conv(cfg.BaseFilters, cfg.BaseFilters, cfg.Kernel)
	}
	return total
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
