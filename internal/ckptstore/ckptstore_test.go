package ckptstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dswp/internal/interp"
	rt "dswp/internal/runtime"
)

// testCheckpoint builds a base image of n words plus a checkpoint that
// diverges from it at a handful of addresses.
func testCheckpoint(n int64) (*interp.Memory, rt.Checkpoint) {
	base := interp.NewMemory(n)
	for a := int64(0); a < n; a++ {
		base.Set(a, a*3-7)
	}
	mem := base.Clone()
	mem.Set(0, -1)
	mem.Set(n/2, 1<<40)
	mem.Set(n-1, 42)
	return base, rt.Checkpoint{Iter: 96, Mem: mem, Regs: []int64{-5, 0, 1 << 50, 7}}
}

func mustEntry(t *testing.T, key string, meta []byte, cp rt.Checkpoint, base *interp.Memory) *Entry {
	t.Helper()
	e, err := NewEntry(key, meta, cp, base)
	if err != nil {
		t.Fatalf("NewEntry: %v", err)
	}
	return e
}

func checkRoundTrip(t *testing.T, e *Entry, base *interp.Memory, want rt.Checkpoint) {
	t.Helper()
	got, err := e.Checkpoint(base)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got.Iter != want.Iter {
		t.Errorf("iter = %d, want %d", got.Iter, want.Iter)
	}
	if len(got.Regs) != len(want.Regs) {
		t.Fatalf("regs = %v, want %v", got.Regs, want.Regs)
	}
	for i := range want.Regs {
		if got.Regs[i] != want.Regs[i] {
			t.Errorf("reg %d = %d, want %d", i, got.Regs[i], want.Regs[i])
		}
	}
	if d := got.Mem.Diff(want.Mem); d != -1 {
		t.Errorf("memory differs at word %d", d)
	}
}

func TestEntryDeltaRoundTrip(t *testing.T) {
	base, cp := testCheckpoint(256)
	e := mustEntry(t, "wl.r1", []byte(`{"workload":"x"}`), cp, base)
	if len(e.Deltas) != 3 {
		t.Fatalf("deltas = %d, want 3 (got %v)", len(e.Deltas), e.Deltas)
	}
	checkRoundTrip(t, e, base, cp)
	// The reconstruction must not alias the base image.
	got, _ := e.Checkpoint(base)
	got.Mem.Set(5, 999)
	if base.Get(5) == 999 {
		t.Error("reconstructed memory aliases the base image")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	base, cp := testCheckpoint(64)
	e := mustEntry(t, "181.mcf.r42", []byte("meta-blob"), cp, base)
	d, err := Decode(Encode(e))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.Key != e.Key || string(d.Meta) != string(e.Meta) || d.Iter != e.Iter || d.BaseLen != e.BaseLen {
		t.Errorf("header fields differ: %+v vs %+v", d, e)
	}
	checkRoundTrip(t, d, base, cp)
}

func TestEncodeDecodeEmptyFields(t *testing.T) {
	base := interp.NewMemory(8)
	cp := rt.Checkpoint{Iter: 0, Mem: base.Clone(), Regs: nil}
	e := mustEntry(t, "k", nil, cp, base)
	d, err := Decode(Encode(e))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(d.Deltas) != 0 || len(d.Regs) != 0 || len(d.Meta) != 0 {
		t.Errorf("expected empty fields, got %+v", d)
	}
}

func TestNewEntrySizeMismatch(t *testing.T) {
	base, cp := testCheckpoint(64)
	if _, err := NewEntry("k", nil, cp, interp.NewMemory(32)); err == nil {
		t.Error("NewEntry accepted mismatched base size")
	}
	if _, err := NewEntry("k", nil, rt.Checkpoint{}, base); err == nil {
		t.Error("NewEntry accepted nil checkpoint memory")
	}
}

func TestCheckpointBaseMismatch(t *testing.T) {
	base, cp := testCheckpoint(64)
	e := mustEntry(t, "k", nil, cp, base)
	if _, err := e.Checkpoint(interp.NewMemory(16)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong-size base: err = %v, want ErrCorrupt", err)
	}
	if _, err := e.Checkpoint(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil base: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeCorruption flips or truncates every byte position and asserts
// Decode never panics and never silently accepts a damaged record.
func TestDecodeCorruption(t *testing.T) {
	base, cp := testCheckpoint(64)
	rec := Encode(mustEntry(t, "corrupt-me", []byte("m"), cp, base))

	for i := range rec {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0x41
		if _, err := Decode(bad); err == nil {
			// A flip in both the body and CRC matching by chance is
			// astronomically unlikely; any success here is a bug.
			t.Errorf("Decode accepted record with byte %d flipped", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	for n := 0; n < len(rec); n++ {
		if _, err := Decode(rec[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
	if _, err := Decode(append(append([]byte(nil), rec...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Error("Decode accepted record with trailing byte")
	}
}

// TestDecodeHostileCounts crafts records whose CRC is valid but whose
// length fields are absurd, so allocation guards (not the CRC) must catch
// them.
func TestDecodeHostileCounts(t *testing.T) {
	// Raw record: magic + a keyLen claiming ~2^34 bytes, with a valid CRC
	// so only the framing guard can reject it.
	body := append([]byte{}, magic[:]...)
	body = append(body, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
	if _, err := Decode(withCRC(body)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge keyLen: err = %v, want ErrCorrupt", err)
	}
	// Valid empty key/meta, then a register count larger than the record.
	body = append([]byte{}, magic[:]...)
	body = append(body, 0, 0, 0, 0) // keyLen, metaLen, iter, baseLen
	body = append(body, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
	if _, err := Decode(withCRC(body)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge nregs: err = %v, want ErrCorrupt", err)
	}
}

// withCRC appends the CRC trailer Encode would, making hand-built hostile
// bodies pass the checksum gate.
func withCRC(body []byte) []byte {
	sum := crc32.ChecksumIEEE(body)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	return append(append([]byte(nil), body...), crc[:]...)
}

func TestMemStoreBasics(t *testing.T) {
	base, cp := testCheckpoint(64)
	s := NewMem()
	defer s.Close()
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	e := mustEntry(t, "a", []byte("m"), cp, base)
	if err := s.Put(e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	checkRoundTrip(t, got, base, cp)

	s.Put(mustEntry(t, "b", nil, cp, base))
	keys, _ := s.Keys()
	if fmt.Sprint(keys) != "[a b]" {
		t.Errorf("Keys = %v, want [a b]", keys)
	}
	s.Corrupt("a")
	if _, err := s.Get("a"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get(corrupted) = %v, want ErrCorrupt", err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(deleted) = %v, want ErrNotFound", err)
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Errorf("Delete(absent) = %v, want nil", err)
	}
}

// TestMemStoreKeysDoNotBlockEachOther: an append to one key — which may
// compact its log, while that key's pipeline is paused at a barrier — must
// not wait for work in progress on another key. The test holds key a's
// log as an in-flight append would and requires appends, a Get and a Put
// on key b to finish meanwhile.
func TestMemStoreKeysDoNotBlockEachOther(t *testing.T) {
	base, cp := testCheckpoint(64)
	s := NewMem()
	defer s.Close()
	for _, key := range []string{"a", "b"} {
		if err := s.Put(mustEntry(t, key, nil, cp, base)); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}
	c := mustEntry(t, "c", nil, cp, base)
	held := s.logs["a"]
	held.mu.Lock()
	defer held.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		prev := cp.Iter
		for i := int64(1); i <= 8; i++ {
			ep := &Epoch{Iter: prev + i, Prev: prev + i - 1, Regs: cp.Regs,
				Deltas: []Delta{{Addr: i, Val: i}}}
			if err := s.Append("b", ep); err != nil {
				done <- err
				return
			}
		}
		if _, err := s.Get("b"); err != nil {
			done <- err
			return
		}
		done <- s.Put(c)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("key b's appends waited on key a's log")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	base, cp := testCheckpoint(128)
	key := "list-traversal|t=4.r7"
	if err := s.Put(mustEntry(t, key, []byte("req-json"), cp, base)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	checkRoundTrip(t, got, base, cp)

	// Overwrite under the same key: latest wins, still one file.
	cp2 := cp
	cp2.Iter = 200
	if err := s.Put(mustEntry(t, key, nil, cp2, base)); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	got, err = s.Get(key)
	if err != nil {
		t.Fatalf("Get after overwrite: %v", err)
	}
	if got.Iter != 200 {
		t.Errorf("iter after overwrite = %d, want 200", got.Iter)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Errorf("dir holds %d files, want 1", len(files))
	}
	s.Close()

	// Reopen: the record survives and re-indexes.
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	keys, _ := s2.Keys()
	if len(keys) != 1 || keys[0] != key {
		t.Errorf("keys after reopen = %v, want [%s]", keys, key)
	}
	if s2.CorruptSkipped() != 0 {
		t.Errorf("CorruptSkipped = %d, want 0", s2.CorruptSkipped())
	}
}

func TestFileStoreCrashArtifacts(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenFile(dir)
	base, cp := testCheckpoint(64)
	s.Put(mustEntry(t, "good", nil, cp, base))
	s.Close()

	// Simulate crash artifacts: a leftover temp file, a torn record, and
	// a garbage file with the right extension.
	if err := os.WriteFile(filepath.Join(dir, "tmp-123456"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := Encode(mustEntry(t, "torn", nil, cp, base))
	if err := os.WriteFile(filepath.Join(dir, fileName("torn")), rec[:len(rec)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage.ckpt"), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen over crash artifacts: %v", err)
	}
	keys, _ := s2.Keys()
	if len(keys) != 1 || keys[0] != "good" {
		t.Errorf("keys = %v, want [good]", keys)
	}
	if s2.CorruptSkipped() != 2 {
		t.Errorf("CorruptSkipped = %d, want 2 (torn + garbage)", s2.CorruptSkipped())
	}
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if strings.HasPrefix(f.Name(), "tmp-") || f.Name() == "garbage.ckpt" {
			t.Errorf("crash artifact %s not garbage-collected", f.Name())
		}
	}
	if len(files) != 1 {
		t.Errorf("dir holds %d files after GC, want 1", len(files))
	}
}

func TestFileStoreCorruptAfterIndex(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenFile(dir)
	base, cp := testCheckpoint(64)
	s.Put(mustEntry(t, "k", nil, cp, base))
	// Corrupt the file behind the store's back, after indexing.
	path := filepath.Join(dir, fileName("k"))
	rec, _ := os.ReadFile(path)
	rec[len(rec)-1] ^= 0xFF
	os.WriteFile(path, rec, 0o644)
	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(corrupt) = %v, want ErrCorrupt", err)
	}
	if s.CorruptSkipped() != 1 {
		t.Errorf("CorruptSkipped = %d, want 1", s.CorruptSkipped())
	}
	// The corrupt record is gone; a second Get is a clean miss.
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after GC = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file not removed")
	}
}

func TestStoresConcurrent(t *testing.T) {
	base, cp := testCheckpoint(64)
	for _, tc := range []struct {
		name string
		s    Store
	}{
		{"mem", NewMem()},
		{"file", mustOpen(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					key := fmt.Sprintf("k%d", g)
					for i := 0; i < 25; i++ {
						c := cp
						c.Iter = int64(i)
						e, err := NewEntry(key, nil, c, base)
						if err != nil {
							t.Errorf("NewEntry: %v", err)
							return
						}
						if err := tc.s.Put(e); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						got, err := tc.s.Get(key)
						if err != nil {
							t.Errorf("Get: %v", err)
							return
						}
						if got.Iter != int64(i) {
							t.Errorf("iter = %d, want %d", got.Iter, i)
							return
						}
						if _, err := tc.s.Keys(); err != nil {
							t.Errorf("Keys: %v", err)
							return
						}
					}
					tc.s.Delete(key)
				}(g)
			}
			wg.Wait()
			keys, _ := tc.s.Keys()
			if len(keys) != 0 {
				t.Errorf("keys after deletes = %v, want none", keys)
			}
			tc.s.Close()
		})
	}
}

func mustOpen(t *testing.T) *FileStore {
	t.Helper()
	s, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}
