package ckptstore

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dswp/internal/failpoint"
	"dswp/internal/interp"
)

// logKey and logMeta are the key and metadata every log test writes.
const (
	logKey  = "wl.r000042"
	logMeta = `{"workload":"x"}`
)

// testChain builds a log of n commits over an initial image of words
// words, each storing a few words, some back to their initial value:
// base is commit 0 as the log's cumulative first record, and eps[i] is
// commit i as an epoch chained to commit i-1 (eps[0] has Prev 0 and base's
// deltas). imgs[i] is the memory image after commit i.
func testChain(n int, words int64) (init *interp.Memory, base *Entry, eps []*Epoch, imgs []*interp.Memory) {
	rng := rand.New(rand.NewPCG(7, 11))
	init = interp.NewMemory(words)
	for a := int64(0); a < words; a++ {
		init.Set(a, a*5-3)
	}
	cur := init.Clone()
	for i := 0; i < n; i++ {
		prevImg := cur.Clone()
		for k := 0; k < 4; k++ {
			a := rng.Int64N(words)
			v := rng.Int64N(1<<20) - 1<<19
			if k == 3 {
				v = init.Get(a) // a word stored back to its initial value
			}
			cur.Set(a, v)
		}
		ep := &Epoch{Iter: int64(8 * (i + 1)), Prev: int64(8 * i),
			Regs: []int64{int64(i), -int64(i), 1 << 40}}
		for a := int64(0); a < words; a++ {
			if v := cur.Get(a); v != prevImg.Get(a) {
				ep.Deltas = append(ep.Deltas, Delta{Addr: a, Val: v})
			}
		}
		eps = append(eps, ep)
		imgs = append(imgs, cur.Clone())
	}
	base = &Entry{Key: logKey, Meta: []byte(logMeta), Iter: eps[0].Iter, Regs: eps[0].Regs,
		BaseLen: words, Deltas: eps[0].Deltas}
	return init, base, eps, imgs
}

// commit writes commit i of a chain to s: Put for the base, Append after.
func commit(s Store, base *Entry, eps []*Epoch, i int) error {
	if i == 0 {
		return s.Put(base)
	}
	return s.Append(logKey, eps[i])
}

// chainRecords encodes a chain as the records a store logs for it.
func chainRecords(base *Entry, eps []*Epoch) [][]byte {
	recs := [][]byte{Encode(base)}
	for _, ep := range eps[1:] {
		recs = append(recs, encodeEpoch(ep))
	}
	return recs
}

// checkAt asserts that e rebuilds epoch eps[i]: its iteration, registers
// and memory image.
func checkAt(t *testing.T, e *Entry, init *interp.Memory, eps []*Epoch, imgs []*interp.Memory, i int) {
	t.Helper()
	cp, err := e.Checkpoint(init)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cp.Iter != eps[i].Iter || !reflect.DeepEqual(cp.Regs, eps[i].Regs) {
		t.Fatalf("entry at iter %d regs %v, want epoch %d: iter %d regs %v",
			cp.Iter, cp.Regs, i, eps[i].Iter, eps[i].Regs)
	}
	if d := cp.Mem.Diff(imgs[i]); d != -1 {
		t.Fatalf("entry at iter %d: memory differs from epoch %d at word %d", cp.Iter, i, d)
	}
	if e.Key != logKey || string(e.Meta) != logMeta {
		t.Fatalf("entry key %q meta %q, want the base's", e.Key, e.Meta)
	}
}

// writeLog hand-writes a log file for logKey into dir.
func writeLog(t *testing.T, dir string, recs [][]byte) string {
	t.Helper()
	var b []byte
	for _, r := range recs {
		b = appendFrame(b, r)
	}
	path := filepath.Join(dir, fileName(logKey))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLogGetMatchesReplay appends a long chain to both stores: after every
// append Get must equal the replay of the whole uncompacted log, so an
// entry reads the same before and after a compaction, and compaction must
// have kept the log below the sum of its records.
func TestLogGetMatchesReplay(t *testing.T) {
	init, base, eps, imgs := testChain(200, 48)
	all := chainRecords(base, eps)
	for _, tc := range []struct {
		name string
		s    Store
	}{
		{"mem", NewMem()},
		{"file", mustOpen(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.s.Close()
			for i := range eps {
				if err := commit(tc.s, base, eps, i); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				got, err := tc.s.Get(logKey)
				if err != nil {
					t.Fatalf("get after %d: %v", i, err)
				}
				want, used, err := replay(all[:i+1])
				if err != nil || used != i+1 {
					t.Fatalf("replay of %d records: used %d, %v", i+1, used, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after epoch %d Get = %+v, replay = %+v", i, got, want)
				}
				checkAt(t, got, init, eps, imgs, i)
			}
			var size int
			switch s := tc.s.(type) {
			case *MemStore:
				size = s.logs[logKey].bytes
			case *FileStore:
				fi, err := os.Stat(filepath.Join(s.Dir(), fileName(logKey)))
				if err != nil {
					t.Fatal(err)
				}
				size = int(fi.Size())
			}
			if size >= logBytes(all) {
				t.Fatalf("log is %d bytes, uncompacted records %d: no compaction", size, logBytes(all))
			}
		})
	}
}

// TestLogCompactedEncodingDecodesToReplay checks the compaction rule on
// every prefix of a chain: the cumulative record decodes to exactly the
// replayed entry, and is produced only when smaller than the log.
func TestLogCompactedEncodingDecodesToReplay(t *testing.T) {
	_, base, eps, _ := testChain(40, 32)
	recs := chainRecords(base, eps)
	compactions := 0
	for n := 2; n <= len(recs); n++ {
		want, _, err := replay(recs[:n])
		if err != nil {
			t.Fatal(err)
		}
		e, c := compacted(recs[:n])
		if c == nil {
			if len(Encode(want)) < logBytes(recs[:n]) {
				t.Fatalf("%d records: smaller cumulative encoding not produced", n)
			}
			continue
		}
		compactions++
		if len(c) >= logBytes(recs[:n]) {
			t.Fatalf("%d records: compaction to %d bytes from %d", n, len(c), logBytes(recs[:n]))
		}
		got, err := Decode(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(e, want) {
			t.Fatalf("%d records: compacted %+v, replay %+v", n, got, want)
		}
	}
	if compactions == 0 {
		t.Fatal("no prefix compacted")
	}
}

// TestLogTornTail tears the last record of a file log at every length:
// Get stops before it, the next open truncates it without counting the
// log corrupt, and the chain continues from the last whole epoch.
func TestLogTornTail(t *testing.T) {
	init, base, eps, imgs := testChain(4, 40)
	recs := chainRecords(base, eps)
	last := len(appendFrame(nil, recs[3]))
	for cut := 1; cut < last; cut++ {
		dir := t.TempDir()
		path := writeLog(t, dir, recs)
		fi, _ := os.Stat(path)
		if err := os.Truncate(path, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		if s.CorruptSkipped() != 0 {
			t.Fatalf("cut %d: torn tail counted corrupt", cut)
		}
		if fi, _ := os.Stat(path); fi.Size() != int64(framedBytes(recs[:3])) {
			t.Fatalf("cut %d: open left %d bytes, want the %d of three whole records",
				cut, fi.Size(), framedBytes(recs[:3]))
		}
		e, err := s.Get(logKey)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		checkAt(t, e, init, eps, imgs, 2)
		if err := s.Append(logKey, eps[3]); err != nil {
			t.Fatalf("cut %d: re-append: %v", cut, err)
		}
		if e, err = s.Get(logKey); err != nil {
			t.Fatal(err)
		}
		checkAt(t, e, init, eps, imgs, 3)
	}
}

// TestLogBrokenLinkMidChain breaks the chain at its second epoch, once by
// a record linked to the wrong iteration and once by a CRC failure:
// either way the chain ends at the first epoch, for Get and for the open
// scan, and nothing after the break is replayed.
func TestLogBrokenLinkMidChain(t *testing.T) {
	init, base, eps, imgs := testChain(4, 40)
	misLinked := *eps[2]
	misLinked.Prev = eps[0].Iter
	flipped := encodeEpoch(eps[2])
	flipped[len(flipped)/2] ^= 0x10
	for name, bad := range map[string][]byte{"link": encodeEpoch(&misLinked), "crc": flipped} {
		t.Run(name, func(t *testing.T) {
			recs := chainRecords(base, eps)
			recs[2] = bad
			e, used, err := replay(recs)
			if err != nil || used != 2 {
				t.Fatalf("replay used %d records, %v; want 2", used, err)
			}
			checkAt(t, e, init, eps, imgs, 1)

			dir := t.TempDir()
			path := writeLog(t, dir, recs)
			s, err := OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			if e, err = s.Get(logKey); err != nil {
				t.Fatal(err)
			}
			checkAt(t, e, init, eps, imgs, 1)
			if fi, _ := os.Stat(path); fi.Size() != int64(framedBytes(recs[:2])) {
				t.Fatalf("open kept %d bytes past the break, want %d", fi.Size(), framedBytes(recs[:2]))
			}
			// The store links the next epoch to where the chain ended.
			if err := s.Append(logKey, eps[3]); !errors.Is(err, ErrBrokenChain) {
				t.Fatalf("append past the break: %v, want ErrBrokenChain", err)
			}
		})
	}
}

// TestLogCorruptFirstRecord: a log whose base fails its CRC is unusable
// however good its epochs are — ErrCorrupt from Get, garbage-collected by
// the file store, and MemStore.Corrupt on a chained key has the same
// effect.
func TestLogCorruptFirstRecord(t *testing.T) {
	_, base, eps, _ := testChain(5, 40)
	recs := chainRecords(base, eps)
	recs[0] = append([]byte(nil), recs[0]...)
	recs[0][len(recs[0])/2] ^= 0x01
	if _, _, err := replay(recs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over a corrupt base: %v, want ErrCorrupt", err)
	}

	dir := t.TempDir()
	path := writeLog(t, dir, recs)
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.CorruptSkipped() != 1 {
		t.Fatalf("open scan skipped %d corrupt logs, want 1", s.CorruptSkipped())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt log not removed at open")
	}

	m := NewMem()
	for i := range eps {
		if err := commit(m, base, eps, i); err != nil {
			t.Fatal(err)
		}
	}
	m.Corrupt(logKey)
	if _, err := m.Get(logKey); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get after Corrupt on a chained key: %v, want ErrCorrupt", err)
	}
}

// TestAppendRefusesBrokenChain: an epoch that does not follow the key's
// last record is refused and leaves the log as it was; a Put starts a new
// log over whatever was there.
func TestAppendRefusesBrokenChain(t *testing.T) {
	init, base, eps, imgs := testChain(3, 40)
	for _, s := range []Store{NewMem(), mustOpen(t)} {
		if err := s.Append(logKey, eps[1]); !errors.Is(err, ErrBrokenChain) {
			t.Fatalf("%T: append to a missing key: %v", s, err)
		}
		if err := s.Put(base); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(logKey, eps[2]); !errors.Is(err, ErrBrokenChain) {
			t.Fatalf("%T: append skipping an epoch: %v", s, err)
		}
		e, err := s.Get(logKey)
		if err != nil {
			t.Fatal(err)
		}
		checkAt(t, e, init, eps, imgs, 0)
		if err := s.Append(logKey, eps[1]); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(base); err != nil {
			t.Fatal(err)
		}
		if e, err = s.Get(logKey); err != nil {
			t.Fatal(err)
		}
		checkAt(t, e, init, eps, imgs, 0)
		s.Close()
	}
}

// TestFileStoreAppendFaults: a failed open for append and a short append
// write both degrade the key; the log still reads back to the last
// durable epoch, and the torn half-record the short write left is
// truncated at the next open.
func TestFileStoreAppendFaults(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	init, base, eps, imgs := testChain(3, 40)
	for _, site := range []string{"ckptstore/file/append", "ckptstore/file/short-write"} {
		s := openTestStore(t)
		for i := range eps[:2] {
			if err := commit(s, base, eps, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := failpoint.Enable(site, "error(ENOSPC):once"); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(logKey, eps[2]); !errors.Is(err, ErrDurabilityLost) {
			t.Fatalf("%s: append: %v, want ErrDurabilityLost", site, err)
		}
		if s.DegradedKeys() != 1 {
			t.Fatalf("%s: degraded keys = %d, want 1", site, s.DegradedKeys())
		}
		e, err := s.Get(logKey)
		if err != nil {
			t.Fatalf("%s: %v", site, err)
		}
		checkAt(t, e, init, eps, imgs, 1)
		s2, err := OpenFile(s.Dir())
		if err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(filepath.Join(s.Dir(), fileName(logKey)))
		if want := int64(framedBytes(chainRecords(base, eps[:2]))); fi.Size() != want {
			t.Fatalf("%s: reopened log holds %d bytes, want %d", site, fi.Size(), want)
		}
		if e, err = s2.Get(logKey); err != nil {
			t.Fatal(err)
		}
		checkAt(t, e, init, eps, imgs, 1)
	}
}

// TestOpenUpgradesUnframedFile: a file in the earlier single-record
// format (one base record, no frame) keeps its checkpoint across the
// upgrade. The open scan rewrites it as a one-record log that takes
// epochs; when that rewrite fails, the old file stays readable and the key
// takes no writes.
func TestOpenUpgradesUnframedFile(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	init, base, eps, imgs := testChain(2, 40)
	for _, failRename := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, fileName(logKey))
		if err := os.WriteFile(path, Encode(base), 0o644); err != nil {
			t.Fatal(err)
		}
		if failRename {
			if err := failpoint.Enable("ckptstore/file/rename", "error(EIO):once"); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenFile(dir)
		failpoint.Reset()
		if err != nil {
			t.Fatal(err)
		}
		if s.CorruptSkipped() != 0 {
			t.Fatalf("rename fails=%v: an unframed file counted corrupt", failRename)
		}
		e, err := s.Get(logKey)
		if err != nil {
			t.Fatalf("rename fails=%v: %v", failRename, err)
		}
		checkAt(t, e, init, eps, imgs, 0)
		err = s.Append(logKey, eps[1])
		if failRename {
			if !errors.Is(err, ErrDurabilityLost) || s.DegradedKeys() != 1 {
				t.Fatalf("append to a file left unframed: %v, %d degraded keys", err, s.DegradedKeys())
			}
			continue
		}
		if err != nil {
			t.Fatalf("append after the upgrade: %v", err)
		}
		if e, err = s.Get(logKey); err != nil {
			t.Fatal(err)
		}
		checkAt(t, e, init, eps, imgs, 1)
		data, _ := os.ReadFile(path)
		if want := framedBytes(chainRecords(base, eps)); len(data) != want || unframed(data) {
			t.Fatalf("upgraded log holds %d bytes, want %d framed", len(data), want)
		}
	}
}
