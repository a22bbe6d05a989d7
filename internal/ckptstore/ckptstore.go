// Package ckptstore is the durable half of the fault-tolerance story: a
// pluggable store for runtime.Checkpoint commits, so recovery survives not
// just a failed pipeline attempt (the supervisor's in-memory latch) but the
// loss of the attempt's whole process — a dswpd restart after SIGKILL.
//
// Each key holds an append-only log whose cost per commit is what the
// commit's epoch wrote:
//
//   - the first record is a base (Put): one cumulative Entry, memory stored as
//     deltas against the workload's initial image (DSWP checkpoints are
//     taken mid-loop, so most of the image is untouched), plus the key and
//     an opaque caller metadata blob (the serving engine stores the
//     request JSON there) — which is what makes post-crash recovery
//     self-describing;
//   - every later record is one epoch (Append): its iteration, the
//     iteration of the commit it follows (the chain link), the register
//     file, and only the words the epoch changed;
//   - every record carries a trailing CRC32 (IEEE), so torn or bit-rotted
//     records are detected and never resumed from.
//
// Get replays the base plus the longest valid prefix of the chain into one
// cumulative Entry: a record that fails its CRC or does not link to its
// predecessor ends the chain, so a torn tail costs durability (recovery
// starts from an earlier epoch), never correctness. A log that grows
// larger than its cumulative encoding is compacted back into one base
// record.
//
// Two implementations share the codec: MemStore (a mutex-guarded map of
// per-key record lists — the default for in-process engines, and it keeps
// the codec honest on every commit) and FileStore (one log file per key:
// bases written via temp file + fsync + atomic rename, epochs appended and
// fsynced, torn tails truncated and corrupt files garbage-collected on
// open).
package ckptstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"dswp/internal/interp"
	rt "dswp/internal/runtime"
)

// Typed store errors. FileStore and MemStore wrap these so callers can
// errors.Is without caring which implementation they hold.
var (
	// ErrNotFound reports that no entry exists under the requested key.
	ErrNotFound = errors.New("ckptstore: entry not found")
	// ErrCorrupt reports that an entry exists but failed validation
	// (bad magic, truncation, CRC mismatch, or impossible geometry) —
	// the caller must treat it as absent and garbage-collect it rather
	// than resume from it.
	ErrCorrupt = errors.New("ckptstore: entry corrupt")
)

// ErrBrokenChain reports an Append whose epoch does not follow the key's
// last record (a missing key, or a different previous iteration): the
// store refuses it rather than log a delta against the wrong image. The
// caller starts a new log with Put.
var ErrBrokenChain = errors.New("ckptstore: epoch does not follow the log")

// Store is the durable checkpoint interface the supervisor commits through
// and the engine recovers from. Implementations must be safe for
// concurrent use; Put and Append must be atomic with respect to crashes (a
// reader after a mid-write crash sees the previous state of the log, or a
// detectably torn record that ends it, never a silent hybrid).
type Store interface {
	// Put durably commits e under e.Key as one cumulative base record,
	// starting a new log that replaces any previous one.
	Put(e *Entry) error
	// Append durably logs one checkpoint epoch under key, chained to the
	// log's last record: ep.Prev must be that record's iteration
	// (ErrBrokenChain otherwise, or when key has no log). ep's slices may
	// be reused by the caller once Append returns.
	Append(key string, ep *Epoch) error
	// Get returns the cumulative entry under key: the log's base plus
	// the longest valid prefix of its chain. Errors: ErrNotFound when
	// absent, ErrCorrupt when the base is unusable.
	Get(key string) (*Entry, error)
	// Delete removes the entry under key (no error when absent).
	Delete(key string) error
	// Keys lists every readable entry's key.
	Keys() ([]string, error)
	// Close releases resources. The store is unusable afterwards.
	Close() error
}

// CorruptCounter is implemented by stores that can report how many
// corrupt or torn entries they detected and skipped (FileStore counts
// them during its open scan and on Get); recovery surfaces the count.
type CorruptCounter interface {
	CorruptSkipped() int
}

// Delta is one memory word a checkpoint changed.
type Delta = rt.Delta

// Entry is one durable checkpoint: the architectural cut a
// runtime.Checkpoint captures, delta-encoded against the workload's
// initial memory image, plus the identity and metadata recovery needs.
type Entry struct {
	// Key is the store key the entry lives under.
	Key string
	// Meta is an opaque caller blob carried with the entry — the serving
	// engine stores the originating request's JSON so a post-crash scan
	// can rebuild the workload without any out-of-band state.
	Meta []byte
	// Iter is the checkpoint's completed outer-loop iteration count.
	Iter int64
	// Regs is the merged architectural register file.
	Regs []int64
	// BaseLen is the word count of the initial memory image the deltas
	// were computed against; reconstruction validates it.
	BaseLen int64
	// Deltas are the words that differ from the initial image, in
	// ascending address order.
	Deltas []Delta
}

// Epoch is one checkpoint commit as a store logs it: the words the
// epoch changed since the commit it follows.
type Epoch struct {
	// Iter is the commit's completed outer-loop iteration count.
	Iter int64
	// Prev is the iteration of the commit this epoch follows: the chain
	// link.
	Prev int64
	// Regs is the merged architectural register file.
	Regs []int64
	// Deltas are the words that differ from the previous commit's image,
	// in ascending address order.
	Deltas []Delta
}

// NewEntry delta-encodes checkpoint cp against the initial image base.
// base must be the same image the run started from (sizes must match);
// meta travels with the entry verbatim. It scans the whole image, so the
// commit path uses it only to restart a log after a failed write.
func NewEntry(key string, meta []byte, cp rt.Checkpoint, base *interp.Memory) (*Entry, error) {
	if cp.Mem == nil {
		return nil, fmt.Errorf("ckptstore: checkpoint has no memory image")
	}
	var baseLen int64
	if base != nil {
		baseLen = base.Size()
	}
	if baseLen != cp.Mem.Size() {
		return nil, fmt.Errorf("ckptstore: base image %d words, checkpoint %d",
			baseLen, cp.Mem.Size())
	}
	e := &Entry{Key: key, Meta: meta, Iter: cp.Iter,
		Regs: append([]int64(nil), cp.Regs...), BaseLen: baseLen}
	if baseLen == 0 {
		return e, nil
	}
	cur, init := cp.Mem.Words(), base.Words()
	for a, v := range cur {
		if v != init[a] {
			e.Deltas = append(e.Deltas, Delta{Addr: int64(a), Val: v})
		}
	}
	return e, nil
}

// Checkpoint reconstructs the runtime.Checkpoint against base, which must
// be the same initial image the entry was encoded against (same size; the
// caller rebuilds it deterministically from the workload named in Meta).
func (e *Entry) Checkpoint(base *interp.Memory) (rt.Checkpoint, error) {
	if base == nil || base.Size() != e.BaseLen {
		got := int64(-1)
		if base != nil {
			got = base.Size()
		}
		return rt.Checkpoint{}, fmt.Errorf("%w: base image %d words, entry encoded against %d",
			ErrCorrupt, got, e.BaseLen)
	}
	mem := base.Clone()
	for _, d := range e.Deltas {
		if d.Addr < 0 || d.Addr >= e.BaseLen {
			return rt.Checkpoint{}, fmt.Errorf("%w: delta address %d outside image of %d words",
				ErrCorrupt, d.Addr, e.BaseLen)
		}
		mem.Set(d.Addr, d.Val)
	}
	return rt.Checkpoint{Iter: e.Iter, Mem: mem,
		Regs: append([]int64(nil), e.Regs...)}, nil
}

// Binary record layouts (all varints are binary.PutUvarint /
// binary.PutVarint little-endian base-128). A base record:
//
//	magic   [8]byte "DSWPCKP1"
//	keyLen  uvarint, key bytes
//	metaLen uvarint, meta bytes
//	iter    uvarint
//	baseLen uvarint
//	nregs   uvarint, regs as zigzag varints
//	ndeltas uvarint, per delta: addr-gap uvarint (delta from the previous
//	        address, so sorted sparse writes stay 1-byte), val zigzag varint
//	crc     uint32 little-endian, IEEE CRC32 over everything above
//
// An epoch record:
//
//	tag     byte 'E'
//	iter    uvarint
//	prev    uvarint (the chain link)
//	nregs, regs, ndeltas, deltas as in a base record
//	crc     uint32 little-endian, IEEE CRC32 over everything above
var magic = [8]byte{'D', 'S', 'W', 'P', 'C', 'K', 'P', '1'}

const epochTag = 'E'

type encoder struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

func (w *encoder) u(v uint64) { w.buf = append(w.buf, w.tmp[:binary.PutUvarint(w.tmp[:], v)]...) }
func (w *encoder) s(v int64)  { w.buf = append(w.buf, w.tmp[:binary.PutVarint(w.tmp[:], v)]...) }

// state writes the register file and delta list shared by both layouts.
func (w *encoder) state(regs []int64, deltas []Delta) {
	w.u(uint64(len(regs)))
	for _, r := range regs {
		w.s(r)
	}
	w.u(uint64(len(deltas)))
	prev := int64(0)
	for _, d := range deltas {
		w.u(uint64(d.Addr - prev))
		w.s(d.Val)
		prev = d.Addr
	}
}

func (w *encoder) seal() []byte {
	return binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
}

// Encode serializes the entry into a CRC-guarded base record.
func Encode(e *Entry) []byte {
	w := &encoder{buf: append([]byte(nil), magic[:]...)}
	w.u(uint64(len(e.Key)))
	w.buf = append(w.buf, e.Key...)
	w.u(uint64(len(e.Meta)))
	w.buf = append(w.buf, e.Meta...)
	w.u(uint64(e.Iter))
	w.u(uint64(e.BaseLen))
	w.state(e.Regs, e.Deltas)
	return w.seal()
}

// encodeEpoch serializes a chained epoch into a CRC-guarded epoch record.
func encodeEpoch(ep *Epoch) []byte {
	w := &encoder{buf: []byte{epochTag}}
	w.u(uint64(ep.Iter))
	w.u(uint64(ep.Prev))
	w.state(ep.Regs, ep.Deltas)
	return w.seal()
}

// decoder reads one CRC-checked record body; every failure wraps
// ErrCorrupt.
type decoder struct{ p []byte }

// open checks b's CRC trailer and returns a decoder over its body.
func open(b []byte) (*decoder, error) {
	if len(b) < 1+4 {
		return nil, fmt.Errorf("%w: record truncated to %d bytes", ErrCorrupt, len(b))
	}
	body, crc := b[:len(b)-4], b[len(b)-4:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.LittleEndian.Uint32(crc) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return &decoder{p: body}, nil
}

func (r *decoder) u() (uint64, error) {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	r.p = r.p[n:]
	return v, nil
}

func (r *decoder) s() (int64, error) {
	v, n := binary.Varint(r.p)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	r.p = r.p[n:]
	return v, nil
}

func (r *decoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.p)) {
		return nil, fmt.Errorf("%w: field of %d bytes exceeds record", ErrCorrupt, n)
	}
	out := r.p[:n]
	r.p = r.p[n:]
	return out, nil
}

// state reads the register file and delta list, validating every address
// against an image of baseLen words, and requires the record to end there.
func (r *decoder) state(baseLen int64) ([]int64, []Delta, error) {
	nregs, err := r.u()
	if err != nil {
		return nil, nil, err
	}
	if nregs > uint64(len(r.p)) { // each reg is >= 1 byte
		return nil, nil, fmt.Errorf("%w: %d registers exceed record", ErrCorrupt, nregs)
	}
	regs := make([]int64, nregs)
	for i := range regs {
		if regs[i], err = r.s(); err != nil {
			return nil, nil, err
		}
	}
	nd, err := r.u()
	if err != nil {
		return nil, nil, err
	}
	if nd > uint64(len(r.p)) { // each delta is >= 2 bytes
		return nil, nil, fmt.Errorf("%w: %d deltas exceed record", ErrCorrupt, nd)
	}
	deltas := make([]Delta, nd)
	prev := int64(0)
	for i := range deltas {
		gap, err := r.u()
		if err != nil {
			return nil, nil, err
		}
		val, err := r.s()
		if err != nil {
			return nil, nil, err
		}
		prev += int64(gap)
		deltas[i] = Delta{Addr: prev, Val: val}
		if prev < 0 || prev >= baseLen {
			return nil, nil, fmt.Errorf("%w: delta address %d outside image of %d words",
				ErrCorrupt, prev, baseLen)
		}
	}
	if len(r.p) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.p))
	}
	return regs, deltas, nil
}

// Decode parses a base record, validating magic, framing, and CRC.
// Every validation failure wraps ErrCorrupt — a decode error always means
// "do not resume from this", never "retry differently".
func Decode(b []byte) (*Entry, error) {
	r, err := open(b)
	if err != nil {
		return nil, err
	}
	if len(r.p) < len(magic) || string(r.p[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r.p = r.p[len(magic):]

	e := &Entry{}
	n, err := r.u()
	if err != nil {
		return nil, err
	}
	kb, err := r.take(n)
	if err != nil {
		return nil, err
	}
	e.Key = string(kb)
	if n, err = r.u(); err != nil {
		return nil, err
	}
	mb, err := r.take(n)
	if err != nil {
		return nil, err
	}
	if len(mb) > 0 {
		e.Meta = append([]byte(nil), mb...)
	}
	iter, err := r.u()
	if err != nil {
		return nil, err
	}
	e.Iter = int64(iter)
	bl, err := r.u()
	if err != nil {
		return nil, err
	}
	e.BaseLen = int64(bl)
	if e.Regs, e.Deltas, err = r.state(e.BaseLen); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeEpoch parses an epoch record of a log over an image of baseLen
// words.
func decodeEpoch(b []byte, baseLen int64) (*Epoch, error) {
	r, err := open(b)
	if err != nil {
		return nil, err
	}
	if r.p[0] != epochTag {
		return nil, fmt.Errorf("%w: bad epoch tag", ErrCorrupt)
	}
	r.p = r.p[1:]
	ep := &Epoch{}
	iter, err := r.u()
	if err != nil {
		return nil, err
	}
	prev, err := r.u()
	if err != nil {
		return nil, err
	}
	ep.Iter, ep.Prev = int64(iter), int64(prev)
	if ep.Regs, ep.Deltas, err = r.state(baseLen); err != nil {
		return nil, err
	}
	return ep, nil
}

// replay rebuilds the cumulative entry from a key's log records: the base
// (recs[0], which must decode) plus the longest prefix of epochs that
// decode and link — each epoch's Prev equal to its predecessor's Iter,
// and Iter past it. It returns the entry and how many records it used; a
// record past that is torn, corrupt or mis-linked, and so is all after it.
func replay(recs [][]byte) (*Entry, int, error) {
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("%w: empty log", ErrCorrupt)
	}
	e, err := Decode(recs[0])
	if err != nil {
		return nil, 0, err
	}
	lists := [][]Delta{e.Deltas}
	for _, rec := range recs[1:] {
		ep, err := decodeEpoch(rec, e.BaseLen)
		if err != nil || ep.Prev != e.Iter || ep.Iter <= ep.Prev {
			break
		}
		e.Iter, e.Regs = ep.Iter, ep.Regs
		lists = append(lists, ep.Deltas)
	}
	used := len(lists)
	// Merge the address-sorted delta lists pairwise, later lists winning
	// on equal addresses: O(n log k) for n deltas over k records.
	for len(lists) > 1 {
		next := lists[:0]
		for i := 0; i < len(lists); i += 2 {
			if i+1 == len(lists) {
				next = append(next, lists[i])
			} else {
				next = append(next, mergeDeltas(lists[i], lists[i+1]))
			}
		}
		lists = next
	}
	e.Deltas = lists[0]
	return e, used, nil
}

// mergeDeltas merges two address-sorted delta lists; on an address both
// hold, later's value wins.
func mergeDeltas(earlier, later []Delta) []Delta {
	out := make([]Delta, 0, len(earlier)+len(later))
	for len(earlier) > 0 && len(later) > 0 {
		switch a, b := earlier[0].Addr, later[0].Addr; {
		case a < b:
			out, earlier = append(out, earlier[0]), earlier[1:]
		case a > b:
			out, later = append(out, later[0]), later[1:]
		default:
			out, earlier, later = append(out, later[0]), earlier[1:], later[1:]
		}
	}
	return append(append(out, earlier...), later...)
}

// logBytes sums a log's encoded size.
func logBytes(recs [][]byte) int {
	n := 0
	for _, r := range recs {
		n += len(r)
	}
	return n
}

// compacted returns the log's cumulative entry and its encoding when the
// encoding is smaller than the log itself; nil otherwise (or when the base
// is unreadable).
func compacted(recs [][]byte) (*Entry, []byte) {
	if len(recs) < 2 {
		return nil, nil
	}
	e, _, err := replay(recs)
	if err != nil {
		return nil, nil
	}
	if rec := Encode(e); len(rec) < logBytes(recs) {
		return e, rec
	}
	return nil, nil
}
