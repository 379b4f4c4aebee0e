package dist

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/wire"
)

// bulkKeyFixture is an in-process coordinator with live problems whose IDs
// are as hostile to the key syntax as IDs get, at least one leased unit
// each, and one problem without shared data.
type bulkKeyFixture struct {
	srv    *Server
	shared map[string][]byte // problem ID -> SharedData
	first  map[string]*Task  // problem ID -> the first unit leased from it
	leased []*Task           // every unit out, i.e. the whole attempt table
}

func newBulkKeyFixture(t testing.TB) *bulkKeyFixture {
	t.Helper()
	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 50}
	fx := &bulkKeyFixture{
		srv: NewServer(WithServerOptions(opts)),
		shared: map[string][]byte{
			"a/b.c":  []byte("shared bytes of a/b.c"),
			"unit/x": []byte("shared bytes of unit/x"),
			"bare":   nil,
		},
		first: make(map[string]*Task),
	}
	t.Cleanup(func() { fx.srv.Close() })
	// a/b.c has a second unit so that folding its first leaves it live.
	for id, n := range map[string]int64{"a/b.c": 100, "unit/x": 50, "bare": 50} {
		if err := fx.srv.Submit(bg, &Problem{ID: id, DM: newSumDM(n), SharedData: fx.shared[id]}); err != nil {
			t.Fatal(err)
		}
	}
	for len(fx.first) < len(fx.shared) {
		task, _, err := fx.srv.RequestTask(bg, "w")
		if err != nil || task == nil {
			t.Fatalf("no task: %v", err)
		}
		fx.leased = append(fx.leased, task)
		if fx.first[task.ProblemID] == nil {
			fx.first[task.ProblemID] = task
		}
	}
	return fx
}

// unitKeyOf is the key shape under which the bulk channel once served a
// leased unit's payload. Payloads now ride the dispatch reply, so every key
// of this shape must be a miss, live unit or not.
func unitKeyOf(task *Task) string {
	return fmt.Sprintf("unit/%s/%d.%d", task.ProblemID, task.Epoch, task.Unit.ID)
}

// TestBulkKeyResolution is the table for the one parser of outside input
// the bulk view adds: the shared and content key shapes resolve to their
// owner's bytes, a unit payload is never served by any key, and anything
// malformed or unknown is a miss.
func TestBulkKeyResolution(t *testing.T) {
	fx := newBulkKeyFixture(t)
	ab, ux := fx.first["a/b.c"], fx.first["unit/x"]
	hits := []struct {
		key  string
		want []byte
	}{
		{sharedKey("a/b.c"), fx.shared["a/b.c"]},
		{sharedKey("unit/x"), fx.shared["unit/x"]},
		{wire.ContentKey(wire.Digest(fx.shared["a/b.c"])), fx.shared["a/b.c"]},
		{sharedKey("bare"), nil}, // a live problem without shared data serves an empty blob
		{wire.ContentKey(wire.Digest(nil)), nil},
	}
	for _, c := range hits {
		got, ok := fx.srv.bulkBlob(c.key)
		if !ok || !bytes.Equal(got, c.want) {
			t.Errorf("bulkBlob(%q) = %q, %v; want %q", c.key, got, ok, c.want)
		}
	}
	misses := []string{
		// Live units under the key shape that once served payloads.
		unitKeyOf(ab), unitKeyOf(ux),
		"unit/a/b.c/1.x", "unit/a/b.c/x.1", "unit/a/b.c/1.", "unit/a/b.c/.1",
		"unit/a/b.c/11", "unit/1.1", "unit/a/b.c", "unit/", "unit",
		// Unknown owners and unknown namespaces.
		"shared/", "shared", "shared/nobody", "content/", "content", "content/sha256:beef",
		"", "a/b.c", "/shared/a/b.c", "bogus/a/b.c", "SHARED/a/b.c",
	}
	for _, key := range misses {
		if got, ok := fx.srv.bulkBlob(key); ok {
			t.Errorf("bulkBlob(%q) = %q, want a miss", key, got)
		}
	}

	// The lifetime rule: a shared blob outlives a fold of one of its
	// problem's units and is gone once the problem is.
	result, err := Marshal(int64(0))
	if err != nil {
		t.Fatal(err)
	}
	if !submitRaw(t, fx.srv, ab, "w", result) {
		t.Fatal("result rejected")
	}
	if _, ok := fx.srv.bulkBlob(sharedKey("a/b.c")); !ok {
		t.Error("shared blob gone while the problem is live")
	}
	if err := fx.srv.Forget("unit/x"); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{sharedKey("unit/x"), wire.ContentKey(wire.Digest(fx.shared["unit/x"]))} {
		if _, ok := fx.srv.bulkBlob(key); ok {
			t.Errorf("bulkBlob(%q) still served after Forget", key)
		}
	}
}

// FuzzBulkKey feeds the resolver arbitrary key bytes: it must never panic,
// and whatever it serves must be one of the coordinator's own live shared
// blobs — never a unit payload.
func FuzzBulkKey(f *testing.F) {
	fx := newBulkKeyFixture(f)
	var live [][]byte
	for id, shared := range fx.shared {
		live = append(live, shared)
		f.Add([]byte(sharedKey(id)))
		f.Add([]byte(wire.ContentKey(wire.Digest(shared))))
	}
	for _, task := range fx.leased {
		f.Add([]byte(unitKeyOf(task)))
	}
	for _, seed := range []string{"", "unit/", "unit/a/b.c/1.", "unit/a/b.c/-1.+1", "unit//1.1",
		"unit/a/b.c/99999999999999999999.1", "shared/unit/x/1.1", "content/sha256:"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, key []byte) {
		got, ok := fx.srv.bulkBlob(string(key))
		if !ok {
			return
		}
		for _, blob := range live {
			if bytes.Equal(got, blob) {
				return
			}
		}
		t.Fatalf("bulkBlob(%q) served %d bytes that are no live shared blob of this server", key, len(got))
	})
}
