// Package interp executes IR functions: single-threaded for the baseline
// and profiling runs, and multi-threaded with synchronization-array queue
// semantics for DSWP output. Execution is purely functional (no timing);
// it records per-thread dynamic traces that the cycle-level model in
// package sim replays. Splitting correctness from timing keeps both sides
// independently testable, mirroring how the paper separates the compiler
// transformation from the validated processor model.
package interp

import (
	"fmt"

	"dswp/internal/ir"
)

// heapBase is the address of the first allocated object. Address 0 is the
// canonical null pointer (workloads use 0 as list terminator), so objects
// start above a small guard region.
const heapBase = 16

// Layout assigns a base word-address to each memory object of f, in
// declaration order. The layout is static, so workloads can materialize
// base addresses as constants, which is what keeps the alias classes
// analyzable (the stand-in for IMPACT's points-to analysis).
func Layout(f *ir.Function) []int64 {
	bases := make([]int64, len(f.Objects))
	addr := int64(heapBase)
	for i, o := range f.Objects {
		bases[i] = addr
		addr += o.Size
	}
	return bases
}

// TotalWords returns the memory image size implied by Layout.
func TotalWords(f *ir.Function) int64 {
	addr := int64(heapBase)
	for _, o := range f.Objects {
		addr += o.Size
	}
	return addr
}

// Memory is a bounds-checked flat word-addressed memory image.
type Memory struct {
	words []int64
}

// NewMemory allocates a zeroed image of n words.
func NewMemory(n int64) *Memory { return &Memory{words: make([]int64, n)} }

// MemoryFor allocates the image required by f's objects.
func MemoryFor(f *ir.Function) *Memory { return NewMemory(TotalWords(f)) }

// Load reads the word at addr.
func (m *Memory) Load(addr int64) (int64, error) {
	if addr < 0 || addr >= int64(len(m.words)) {
		return 0, fmt.Errorf("interp: load out of bounds: addr %d, size %d", addr, len(m.words))
	}
	return m.words[addr], nil
}

// Store writes the word at addr.
func (m *Memory) Store(addr, v int64) error {
	if addr < 0 || addr >= int64(len(m.words)) {
		return fmt.Errorf("interp: store out of bounds: addr %d, size %d", addr, len(m.words))
	}
	m.words[addr] = v
	return nil
}

// Set writes without error for harness initialization; panics when out of
// bounds since that is a workload construction bug.
func (m *Memory) Set(addr, v int64) {
	if err := m.Store(addr, v); err != nil {
		panic(err)
	}
}

// Get reads for harness inspection; panics when out of bounds.
func (m *Memory) Get(addr int64) int64 {
	v, err := m.Load(addr)
	if err != nil {
		panic(err)
	}
	return v
}

// Size returns the image size in words.
func (m *Memory) Size() int64 { return int64(len(m.words)) }

// Words returns the image's backing slice, for callers that scan or copy
// whole images (checkpoint commits and their delta encoding). Writes
// through it bypass the bounds checks; the image is never resized, so the
// slice stays valid for the image's lifetime.
func (m *Memory) Words() []int64 { return m.words }

// Clone copies the image.
func (m *Memory) Clone() *Memory {
	w := make([]int64, len(m.words))
	copy(w, m.words)
	return &Memory{words: w}
}

// Equal reports whether two images are identical.
func (m *Memory) Equal(o *Memory) bool {
	if len(m.words) != len(o.words) {
		return false
	}
	for i, v := range m.words {
		if v != o.words[i] {
			return false
		}
	}
	return true
}

// Diff returns the first differing address, or -1 when equal; for test
// failure messages.
func (m *Memory) Diff(o *Memory) int64 {
	n := len(m.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if m.words[i] != o.words[i] {
			return int64(i)
		}
	}
	if len(m.words) != len(o.words) {
		return int64(n)
	}
	return -1
}
