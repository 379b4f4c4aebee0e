package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func testOptions() Options {
	return Options{SyncInterval: time.Millisecond}
}

func openT(t *testing.T, dir string) (*Store, *Recovered) {
	t.Helper()
	s, rec, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

func sampleRecords() []Record {
	return []Record{
		&Submit{ProblemID: "p1", Epoch: 3, Kind: "k/v1", State: []byte("state-1"), Shared: []byte("shared blob")},
		&Grant{ProblemID: "p1", Epoch: 3, UnitID: 1, Budget: 4096, Quorum: 1},
		&Fold{ProblemID: "p1", Epoch: 3, UnitID: 1, Payload: []byte("result-1")},
		&Grant{ProblemID: "p1", Epoch: 3, UnitID: 2, Budget: -1, Quorum: 2},
		&Fold{ProblemID: "p1", Epoch: 3, UnitID: 2, Payload: nil},
		&Submit{ProblemID: "p2", Epoch: 4, Kind: "k/v1", State: nil, Shared: nil},
		&Forget{ProblemID: "p2", Epoch: 4},
		&Fold{ProblemID: "p1", Epoch: 3, UnitID: 3, Payload: bytes.Repeat([]byte{0xAB}, 1<<10)},
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openT(t, dir)
	if len(rec.Tail) != 0 || len(rec.Problems) != 0 || rec.Truncated {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	want := sampleRecords()
	for i, r := range want {
		var err error
		if i%2 == 0 {
			err = s.Append(r)
		} else {
			err = s.AppendSync(r)
		}
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if b, n := s.LogSize(); n != len(want) || b <= 0 {
		t.Fatalf("LogSize = %d bytes, %d records; want %d records", b, n, len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := openT(t, dir)
	defer s2.Close()
	if rec2.Truncated {
		t.Fatal("clean log reported truncated")
	}
	if !reflect.DeepEqual(rec2.Tail, want) {
		t.Fatalf("recovered tail = %+v\nwant %+v", rec2.Tail, want)
	}
	if rec2.MaxEpoch != 4 {
		t.Fatalf("MaxEpoch = %d, want 4", rec2.MaxEpoch)
	}
}

func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	want := sampleRecords()
	for _, r := range want {
		if err := s.AppendSync(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		// keep is how many leading records must survive (-1: same count
		// as written — corruption past the last record).
		keep int
	}{
		{"truncated-mid-frame", func(b []byte) []byte { return b[:len(b)-3] }, len(want) - 1},
		{"bit-flip-last-record", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x40
			return c
		}, len(want) - 1},
		{"garbage-appended", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xFF, 0x13, 0x37) }, len(want)},
		{"bit-flip-first-record", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(walHeader)+6] ^= 0x01
			return c
		}, 0},
		{"header-smashed", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}, 0},
		{"torn-grant", func(b []byte) []byte {
			g := encodeFrame(&Grant{ProblemID: "p1", Epoch: 3, UnitID: 4, Budget: 1 << 40, Quorum: 2})
			return append(append([]byte(nil), b...), g[:len(g)-2]...)
		}, len(want)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub := t.TempDir()
			if err := os.WriteFile(filepath.Join(sub, walName(1)), tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, rec := openT(t, sub)
			defer s2.Close()
			if len(rec.Tail) != tc.keep {
				t.Fatalf("recovered %d records, want %d", len(rec.Tail), tc.keep)
			}
			if !rec.Truncated && (tc.keep != len(want) || tc.name == "torn-grant") {
				t.Fatal("corruption not reported as truncated")
			}
			if tc.keep > 0 && !reflect.DeepEqual(rec.Tail, want[:tc.keep]) {
				t.Fatalf("tail is not the written prefix: %+v", rec.Tail)
			}
		})
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for _, r := range sampleRecords() {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshotter's contract: rotate, capture, write.
	if err := s.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if b, n := s.LogSize(); b != 0 || n != 0 {
		t.Fatalf("LogSize after rotate = %d, %d; want zeros", b, n)
	}
	snap := []Snapshot{{
		ProblemID: "p1", Epoch: 3, Kind: "k/v1",
		State: []byte("state-after-folds"), Shared: []byte("shared blob"),
		Dispatched: 9, Completed: 3, Reissued: 1,
	}}
	if err := s.WriteSnapshot(Meta{EpochSeq: 7}, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// Records appended after the rotation land in the tail.
	post := &Fold{ProblemID: "p1", Epoch: 3, UnitID: 9, Payload: []byte("post-snap")}
	if err := s.AppendSync(post); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 1 must be pruned.
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatalf("wal generation 1 survived compaction: %v", err)
	}

	s2, rec := openT(t, dir)
	defer s2.Close()
	if rec.Meta.EpochSeq != 7 {
		t.Fatalf("Meta.EpochSeq = %d, want 7", rec.Meta.EpochSeq)
	}
	if !reflect.DeepEqual(rec.Problems, snap) {
		t.Fatalf("recovered problems = %+v\nwant %+v", rec.Problems, snap)
	}
	if len(rec.Tail) != 1 || !reflect.DeepEqual(rec.Tail[0], post) {
		t.Fatalf("recovered tail = %+v, want just the post-snapshot fold", rec.Tail)
	}
	if rec.MaxEpoch != 7 {
		t.Fatalf("MaxEpoch = %d, want 7", rec.MaxEpoch)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	mk := func(id string, epoch int64) []Snapshot {
		return []Snapshot{{ProblemID: id, Epoch: epoch, Kind: "k/v1", State: []byte(id)}}
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(Meta{EpochSeq: 1}, mk("old", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(Meta{EpochSeq: 2}, mk("new", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// WriteSnapshot(gen 3) pruned gen<3: recreate an older snapshot to
	// fall back to, then flip a bit in the newest.
	newest := filepath.Join(dir, snapName(3))
	older := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(older, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data = append([]byte(nil), data...)
	data[len(data)-1] ^= 0x80
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := openT(t, dir)
	defer s2.Close()
	if len(rec.Problems) != 1 || rec.Problems[0].ProblemID != "new" {
		t.Fatalf("fallback recovered %+v, want the intact copy of the newest snapshot", rec.Problems)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&Forget{ProblemID: "x", Epoch: 1}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	const goroutines, per = 8, 50
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				r := &Fold{ProblemID: "p", Epoch: 1, UnitID: int64(g*per + i)}
				var err error
				if i%10 == 0 {
					err = s.AppendSync(r)
				} else {
					err = s.Append(r)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir)
	if len(rec.Tail) != goroutines*per || rec.Truncated {
		t.Fatalf("recovered %d records (truncated=%v), want %d", len(rec.Tail), rec.Truncated, goroutines*per)
	}
}
