package ckptstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// MemStore keeps each key's log as a list of encoded records. It is the
// default store for in-process engines: commits survive a failed attempt
// (the supervisor reads them back when its in-memory latch is empty) but
// not the process. The store's mutex guards only the key index; each log
// has its own, so one key's append — and the compaction it may run —
// never stalls another key's commit (each commit runs while its
// pipeline is paused at a barrier).
// Records round-trip through the codec on every write and Get, so the
// binary encoding is exercised even when no FileStore is configured.
type MemStore struct {
	mu   sync.Mutex
	logs map[string]*memLog
}

// memLog is one key's log: the records, the last logged iteration (what
// the next epoch must link to), and the size at which the next compaction
// check runs.
type memLog struct {
	mu    sync.Mutex
	recs  [][]byte
	bytes int
	last  int64
	check int
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{logs: make(map[string]*memLog)}
}

// Put implements Store.
func (m *MemStore) Put(e *Entry) error {
	if e.Key == "" {
		return fmt.Errorf("ckptstore: empty key")
	}
	rec := Encode(e)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.logs == nil {
		return fmt.Errorf("ckptstore: store closed")
	}
	m.logs[e.Key] = &memLog{recs: [][]byte{rec}, bytes: len(rec), last: e.Iter, check: 2 * len(rec)}
	return nil
}

// Append implements Store. The log is compacted into one base record when
// it has doubled since the last check and its cumulative encoding is
// smaller, so a log stays within about twice its cumulative size and each
// append costs amortized time proportional to its own record.
func (m *MemStore) Append(key string, ep *Epoch) error {
	if key == "" {
		return fmt.Errorf("ckptstore: empty key")
	}
	rec := encodeEpoch(ep)
	m.mu.Lock()
	if m.logs == nil {
		m.mu.Unlock()
		return fmt.Errorf("ckptstore: store closed")
	}
	l := m.logs[key]
	m.mu.Unlock()
	if l == nil {
		return fmt.Errorf("%w: %q at iteration %d", ErrBrokenChain, key, ep.Prev)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last != ep.Prev {
		return fmt.Errorf("%w: %q at iteration %d", ErrBrokenChain, key, ep.Prev)
	}
	l.recs = append(l.recs, rec)
	l.bytes += len(rec)
	l.last = ep.Iter
	if l.bytes > l.check {
		if e, c := compacted(l.recs); c != nil {
			l.recs, l.bytes, l.last = [][]byte{c}, len(c), e.Iter
		}
		l.check = 2 * l.bytes
	}
	return nil
}

// Get implements Store.
func (m *MemStore) Get(key string) (*Entry, error) {
	m.mu.Lock()
	l := m.logs[key]
	m.mu.Unlock()
	var recs [][]byte
	if l != nil {
		l.mu.Lock()
		recs = slices.Clone(l.recs)
		l.mu.Unlock()
	}
	if recs == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	e, _, err := replay(recs)
	return e, err
}

// Delete implements Store.
func (m *MemStore) Delete(key string) error {
	m.mu.Lock()
	delete(m.logs, key)
	m.mu.Unlock()
	return nil
}

// Keys implements Store.
func (m *MemStore) Keys() ([]string, error) {
	m.mu.Lock()
	keys := make([]string, 0, len(m.logs))
	for k := range m.logs {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	sort.Strings(keys)
	return keys, nil
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	m.logs = nil
	m.mu.Unlock()
	return nil
}

// Corrupt overwrites the base record of the log under key with bytes that
// fail CRC validation, so the whole key reads ErrCorrupt. Test and chaos
// hook: it simulates the torn write a real crash could leave behind,
// without needing a filesystem.
func (m *MemStore) Corrupt(key string) {
	m.mu.Lock()
	l := m.logs[key]
	m.mu.Unlock()
	if l != nil {
		l.mu.Lock()
		bad := slices.Clone(l.recs[0])
		bad[len(bad)/2] ^= 0xFF
		l.recs[0] = bad
		l.mu.Unlock()
	}
}

const fileExt = ".ckpt"

// ErrDurabilityLost reports that a key's durable commits have been
// disabled after a write-path failure (ENOSPC, failed fsync, failed
// rename): the store refuses further IO for that key instead of paying a
// doomed temp-file+fsync cycle on every checkpoint period. Wrapped by
// the Put error that detects the condition and returned bare by every
// Put after it; the in-memory checkpoint latch is unaffected, so the
// request keeps being served from the memory path — durability degrades,
// correctness does not.
var ErrDurabilityLost = errors.New("ckptstore: durability lost")

// FileStore persists one log file per key in a directory, so checkpoints
// survive process death. A file is a sequence of records, each behind a
// 4-byte little-endian length. A base record (Put, or a compaction)
// replaces the file through a temp file in the same directory, fsync,
// then an atomic rename over the final name — a crash mid-write leaves
// either the previous log or a temp file the next open garbage-collects.
// An epoch is appended to the file and fsynced; a crash mid-append leaves
// a torn tail, which Get stops before and the next open truncates. File names are the fnv64a hash of the key (keys are
// request-derived and not filesystem-safe); the key inside the base record
// is authoritative and verified on every read.
//
// All IO goes through an FS (fs.go) wrapped with the ckptstore/file/*
// failpoint sites, so chaos schedules can inject disk faults into a
// production-shaped store.
type FileStore struct {
	dir string
	fs  FS
	// Logf, when set, receives one line per durability-degrading event;
	// set it before first use (dswpd points it at stdout).
	Logf func(format string, args ...any)

	mu       sync.Mutex
	logs     map[string]*fileLog
	degraded map[string]struct{} // keys whose durable commits are disabled
	corrupt  int
	closed   bool
}

// fileLog is one key's log file: its name, its size, the last logged
// iteration (what the next epoch must link to), and the size at which the
// next compaction check runs.
type fileLog struct {
	name  string
	size  int
	last  int64
	check int
}

// OpenFile opens (creating if needed) a file-backed store rooted at dir
// on the real filesystem.
func OpenFile(dir string) (*FileStore, error) { return OpenFileFS(dir, OSFS()) }

// OpenFileFS opens a store over an explicit FS (tests and harnesses).
// The opening scan indexes readable logs, deletes temp files from
// interrupted writes, deletes logs whose base record is corrupt or torn —
// counting them in CorruptSkipped — and truncates each log after the last
// record of its valid chain, so a store that crashed mid-write always
// opens clean. A file in the earlier single-record format (one unframed
// base record) is rewritten as a one-record log, so its checkpoint
// survives the upgrade.
func OpenFileFS(dir string, fsys FS) (*FileStore, error) {
	s := &FileStore{dir: dir, fs: hooked{fsys},
		logs: make(map[string]*fileLog), degraded: make(map[string]struct{})}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckptstore: open %s: %w", dir, err)
	}
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: scan %s: %w", dir, err)
	}
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasPrefix(name, "tmp-") {
			s.fs.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, fileExt) {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := s.fs.ReadFile(path)
		if err != nil {
			s.corrupt++
			s.fs.Remove(path)
			continue
		}
		recs := splitLog(data)
		e, used, err := replay(recs)
		if err != nil || fileName(e.Key) != name {
			s.corrupt++
			s.fs.Remove(path)
			continue
		}
		if unframed(data) {
			if s.rewrite(e.Key, e.Iter, data) != nil {
				// rewrite degraded the key: the old file stays
				// readable and takes no writes.
				s.logs[e.Key] = &fileLog{name: name, size: len(data), last: e.Iter}
			}
			continue
		}
		size := framedBytes(recs[:used])
		if size < len(data) && s.fs.Truncate(path, int64(size)) != nil {
			// Epochs appended after the torn tail would be unreachable:
			// the log stays readable but takes no more writes.
			s.degraded[e.Key] = struct{}{}
		}
		s.logs[e.Key] = &fileLog{name: name, size: size, last: e.Iter, check: 2 * size}
	}
	return s, nil
}

// frameHeader is the length prefix of every record in a log file.
const frameHeader = 4

// appendFrame appends rec to buf behind its length.
func appendFrame(buf, rec []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
	return append(buf, rec...)
}

// splitFrames splits a log file into its records. A trailing partial
// frame — a torn append — is dropped.
func splitFrames(b []byte) [][]byte {
	var recs [][]byte
	for len(b) >= frameHeader {
		n := binary.LittleEndian.Uint32(b)
		if uint64(n) > uint64(len(b)-frameHeader) {
			break
		}
		recs = append(recs, b[frameHeader:frameHeader+int(n)])
		b = b[frameHeader+int(n):]
	}
	return recs
}

// unframed reports whether a file holds one base record with no frame,
// the format before logs. No log starts with the magic: its base record
// starts at byte 4 with "DSWP", where the magic has "CKP1".
func unframed(b []byte) bool {
	return len(b) >= len(magic) && string(b[:len(magic)]) == string(magic[:])
}

// splitLog splits a file into its records: framed, or one unframed base
// record.
func splitLog(b []byte) [][]byte {
	if unframed(b) {
		return [][]byte{b}
	}
	return splitFrames(b)
}

// framedBytes is the file size of recs with their frames.
func framedBytes(recs [][]byte) int {
	return logBytes(recs) + frameHeader*len(recs)
}

// Dir returns the store's root directory.
func (s *FileStore) Dir() string { return s.dir }

// CorruptSkipped implements CorruptCounter.
func (s *FileStore) CorruptSkipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

func fileName(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x%s", h.Sum64(), fileExt)
}

// writable reports why key takes no writes: a closed store, or a key
// whose durable commits are disabled.
func (s *FileStore) writable(key string) error {
	if key == "" {
		return fmt.Errorf("ckptstore: empty key")
	}
	s.mu.Lock()
	closed := s.closed
	_, degraded := s.degraded[key]
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("ckptstore: store closed")
	}
	if degraded {
		return ErrDurabilityLost
	}
	return nil
}

// Put implements Store by rewriting the key's log as the one base record.
//
// Write-path failures (ENOSPC, a failed write or fsync, a failed rename)
// degrade durability for the key rather than cascading: the failing write
// returns an error wrapping ErrDurabilityLost (and the underlying cause),
// the event is logged once, and every later Put or Append for the same key
// returns ErrDurabilityLost immediately without touching the disk. The
// caller's in-memory checkpoint path keeps working; Delete clears the
// degraded mark along with the key, so the store converges back to
// healthy as in-flight requests finish.
func (s *FileStore) Put(e *Entry) error {
	if err := s.writable(e.Key); err != nil {
		return err
	}
	return s.rewrite(e.Key, e.Iter, Encode(e))
}

// rewrite replaces key's log with the single base record rec: temp file
// in the same directory, write, fsync, close, atomic rename, best-effort
// directory fsync.
func (s *FileStore) rewrite(key string, iter int64, rec []byte) error {
	frame := appendFrame(nil, rec)
	tmp, err := s.fs.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return s.degrade(key, "create", err)
	}
	defer s.fs.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		return s.degrade(key, "write", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return s.degrade(key, "fsync", err)
	}
	if err := tmp.Close(); err != nil {
		return s.degrade(key, "close", err)
	}
	name := fileName(key)
	if err := s.fs.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return s.degrade(key, "rename", err)
	}
	// Persist the rename itself; rename atomicity holds regardless, so a
	// failure here only risks losing the newest commit, not corruption.
	if d, err := s.fs.OpenDir(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	s.mu.Lock()
	s.logs[key] = &fileLog{name: name, size: len(frame), last: iter, check: 2 * len(frame)}
	s.mu.Unlock()
	return nil
}

// Append implements Store: the epoch is appended to the log file and
// fsynced. Write-path failures degrade the key as in Put; a failed append
// can leave a torn tail, which reads stop before and the next open
// truncates. When the log has
// doubled since the last check and its cumulative encoding is smaller, it
// is compacted into one base record through the rewrite path.
func (s *FileStore) Append(key string, ep *Epoch) error {
	if err := s.writable(key); err != nil {
		return err
	}
	s.mu.Lock()
	l := s.logs[key]
	linked := l != nil && l.last == ep.Prev
	var name string
	if linked {
		name = l.name
	}
	s.mu.Unlock()
	if !linked {
		return fmt.Errorf("%w: %q at iteration %d", ErrBrokenChain, key, ep.Prev)
	}
	frame := appendFrame(nil, encodeEpoch(ep))
	path := filepath.Join(s.dir, name)
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return s.degrade(key, "append", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return s.degrade(key, "write", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.degrade(key, "fsync", err)
	}
	if err := f.Close(); err != nil {
		return s.degrade(key, "close", err)
	}
	s.mu.Lock()
	l.size += len(frame)
	l.last = ep.Iter
	due := l.size > l.check
	if due {
		l.check = 2 * l.size
	}
	s.mu.Unlock()
	if !due {
		return nil
	}
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil // the epoch is durable; compaction waits for the next check
	}
	if e, c := compacted(splitFrames(data)); c != nil {
		return s.rewrite(key, e.Iter, c)
	}
	return nil
}

// degrade marks a key durability-lost after a write-path failure and
// builds the error reporting both the condition and its cause.
func (s *FileStore) degrade(key, op string, cause error) error {
	s.mu.Lock()
	s.degraded[key] = struct{}{}
	n := len(s.degraded)
	s.mu.Unlock()
	if s.Logf != nil {
		s.Logf("ckptstore: %s failed for %q, durable commits disabled for the key (%d degraded): %v",
			op, key, n, cause)
	}
	return fmt.Errorf("%w: %s %q: %w", ErrDurabilityLost, op, key, cause)
}

// DegradedKeys reports how many keys currently have durable commits
// disabled; /healthz lists the checkpoint store as a degraded subsystem
// while this is nonzero.
func (s *FileStore) DegradedKeys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.degraded)
}

// DurabilityDegraded implements the engine's degraded-subsystem probe.
func (s *FileStore) DurabilityDegraded() bool { return s.DegradedKeys() > 0 }

// Get implements Store. A log whose base record fails decode or whose
// embedded key does not match (hash collision, hand-planted file) counts
// as corrupt, is deleted, and surfaces ErrCorrupt; a torn or mis-linked
// record later in the log ends the chain there.
func (s *FileStore) Get(key string) (*Entry, error) {
	s.mu.Lock()
	var name string
	l, ok := s.logs[key]
	if ok {
		name = l.name
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	path := filepath.Join(s.dir, name)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.forget(key, false)
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return nil, fmt.Errorf("ckptstore: get %q: %w", key, err)
	}
	e, _, err := replay(splitLog(data))
	if err != nil || e.Key != key {
		s.forget(key, true)
		s.fs.Remove(path)
		if err == nil {
			err = fmt.Errorf("%w: record holds key %q", ErrCorrupt, e.Key)
		}
		return nil, err
	}
	return e, nil
}

func (s *FileStore) forget(key string, corrupt bool) {
	s.mu.Lock()
	delete(s.logs, key)
	if corrupt {
		s.corrupt++
	}
	s.mu.Unlock()
}

// Delete implements Store. Deleting a key also clears its
// durability-degraded mark: the next request reusing the key starts with
// a clean slate.
func (s *FileStore) Delete(key string) error {
	s.mu.Lock()
	l, ok := s.logs[key]
	delete(s.logs, key)
	delete(s.degraded, key)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	if err := s.fs.Remove(filepath.Join(s.dir, l.name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("ckptstore: delete %q: %w", key, err)
	}
	return nil
}

// Keys implements Store.
func (s *FileStore) Keys() ([]string, error) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.logs))
	for k := range s.logs {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys, nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}
