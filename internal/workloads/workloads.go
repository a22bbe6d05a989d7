// Package workloads defines the benchmark programs of the evaluation: IR
// kernels modeled on the ten loops the paper selects from SPEC-CPU2000,
// Mediabench and wc (Table 1), the 164.gzip single-SCC case study, and the
// pedagogical list kernels of Figures 1 and 2. Each workload builds its IR,
// a synthetic memory image (standing in for the benchmark inputs), and
// metadata the experiment harness needs.
package workloads

import (
	"fmt"

	"dswp/internal/interp"
	"dswp/internal/ir"
)

// Program is one runnable benchmark instance.
type Program struct {
	// Name identifies the workload, e.g. "181.mcf".
	Name string
	// F is the function containing the target loop.
	F *ir.Function
	// LoopHeader names the block heading the loop DSWP targets — "the
	// most important visible loop".
	LoopHeader string
	// Mem is the initial memory image (synthetic input data).
	Mem *interp.Memory
	// Regs pre-initializes live-in registers, when any.
	Regs map[ir.Reg]int64
	// Coverage is the fraction of whole-benchmark execution time spent
	// in the selected loop — Table 1's "Ex.%" column. It is a synthetic
	// constant (the paper measured it on the real benchmarks; we model
	// only the loops, as the paper's detailed simulations also did) and
	// drives the loop-speedup to whole-program-speedup translation via
	// Amdahl's law.
	Coverage float64
	// Description summarizes what the kernel models.
	Description string
}

// Options builds interpreter options running this program.
func (p *Program) Options() interp.Options {
	return interp.Options{Mem: p.Mem, Regs: p.Regs}
}

// StateDigest hashes an execution result's architectural state — the full
// memory image plus thread 0's live-out registers — into one word (FNV-1a
// over the little-endian word stream). Two results with equal digests are,
// for fuzzing and chaos-log purposes, the same state; the differential
// harness still does the exact word-by-word comparison where it matters.
func StateDigest(res *interp.Result) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	word := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
	}
	if res.Mem != nil {
		for a := int64(0); a < res.Mem.Size(); a++ {
			word(res.Mem.Get(a))
		}
	}
	// Live-outs in ascending register order, so the digest is stable
	// across map iteration orders.
	maxReg := ir.Reg(-1)
	for r := range res.LiveOuts {
		if r > maxReg {
			maxReg = r
		}
	}
	for r := ir.Reg(0); r <= maxReg; r++ {
		if v, ok := res.LiveOuts[r]; ok {
			word(int64(r))
			word(v)
		}
	}
	return h
}

// Builder is a named Program constructor; each call builds a fresh
// instance (functions are mutated by transformation passes).
type Builder struct {
	Name  string
	Build func() *Program
}

// RNG is the repo's deterministic PRNG (xorshift64*): workload inputs,
// the validation sweep and the chaos soak all draw from it, so every
// seeded choice reproduces without seeding from the clock.
type RNG struct{ s uint64 }

// NewRNG seeds a generator; seed 0 is remapped to a fixed nonzero value.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Next returns the next 64 bits of the stream.
func (r *RNG) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int64) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("workloads: Intn(%d)", n))
	}
	return int64(r.Next() % uint64(n))
}

// Index returns a value in [0, n) as an int, for picking from a slice.
func (r *RNG) Index(n int) int { return int(r.Intn(int64(n))) }

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int64) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
