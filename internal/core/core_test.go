package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// The test problem doubles as facade documentation: count the vowels in a
// shared text, partitioned into index ranges. The server side is a
// core.TypedDM, the donor side a core.TypedAlgorithm — no []byte codecs in
// sight.

// vowelShared is the typed shared blob.
type vowelShared struct {
	Text string
}

// vowelSpan is one unit's typed payload: a [From, To) index range.
type vowelSpan struct {
	From, To int
}

// vowelCount is one unit's typed result.
type vowelCount struct {
	N int64
}

type vowelDM struct {
	textLen   int
	chunk     int
	next      int
	seq       int64
	inflight  map[int64]int
	completed int
	total     int64
}

func (d *vowelDM) NextUnit(budget int64) (*core.UnitOf[vowelSpan], bool, error) {
	if d.next >= d.textLen {
		return nil, false, nil
	}
	n := d.chunk
	if d.next+n > d.textLen {
		n = d.textLen - d.next
	}
	d.seq++
	u := &core.UnitOf[vowelSpan]{
		ID:        d.seq,
		Algorithm: "core-test/vowels",
		Payload:   vowelSpan{From: d.next, To: d.next + n},
		Cost:      int64(n),
	}
	d.next += n
	d.inflight[d.seq] = n
	return u, true, nil
}

func (d *vowelDM) Consume(id int64, res vowelCount) error {
	n, ok := d.inflight[id]
	if !ok {
		return fmt.Errorf("unknown unit %d", id)
	}
	delete(d.inflight, id)
	d.total += res.N
	d.completed += n
	return nil
}

func (d *vowelDM) Done() bool                { return d.completed >= d.textLen }
func (d *vowelDM) FinalResult() (any, error) { return d.total, nil }

type vowelAlg struct{ text []byte }

func (a *vowelAlg) Init(shared vowelShared) error {
	a.text = []byte(shared.Text)
	return nil
}

func (a *vowelAlg) ProcessCtx(ctx context.Context, span vowelSpan) (vowelCount, error) {
	if err := ctx.Err(); err != nil {
		return vowelCount{}, err
	}
	var count int64
	for _, b := range a.text[span.From:span.To] {
		switch b {
		case 'a', 'e', 'i', 'o', 'u':
			count++
		}
	}
	return vowelCount{N: count}, nil
}

var registerOnce sync.Once

func register() {
	registerOnce.Do(func() {
		core.RegisterTypedAlgorithm("core-test/vowels", func() core.TypedAlgorithm[vowelShared, vowelSpan, vowelCount] {
			return &vowelAlg{}
		})
		core.RegisterAlgorithm("core-test/vowels-bytes", func() core.Algorithm {
			return &byteVowelAlg{}
		})
	})
}

const testText = "the quick brown fox jumps over the lazy dog again and again"

func countVowels(s string) int64 {
	var n int64
	for _, b := range []byte(s) {
		switch b {
		case 'a', 'e', 'i', 'o', 'u':
			n++
		}
	}
	return n
}

func newVowelProblem(t *testing.T, id string, chunk int) *core.Problem {
	t.Helper()
	p, err := core.NewTypedProblem[vowelSpan, vowelCount](id,
		&vowelDM{textLen: len(testText), chunk: chunk, inflight: make(map[int64]int)},
		vowelShared{Text: testText})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunLocalThroughFacade(t *testing.T) {
	register()
	out, err := core.RunLocal(context.Background(), newVowelProblem(t, "vowels-local", 7), 3, core.Fixed(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decode[int64](out)
	if err != nil {
		t.Fatal(err)
	}
	if want := countVowels(testText); got != want {
		t.Fatalf("vowels = %d, want %d", got, want)
	}
}

func TestNetworkDeploymentThroughFacade(t *testing.T) {
	register()
	ctx := context.Background()
	srv, err := core.ListenAndServe("127.0.0.1:0", "127.0.0.1:0",
		core.WithLeaseTTL(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(ctx, newVowelProblem(t, "vowels-net", 5)); err != nil {
		t.Fatal(err)
	}
	events, err := srv.Watch(ctx, "vowels-net")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d := core.NewDonor(cl, core.WithName("facade-donor"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(ctx) }()
	out, err := srv.Wait(ctx, "vowels-net")
	if err != nil {
		t.Fatal(err)
	}
	d.Stop()
	wg.Wait()
	got, err := core.Decode[int64](out)
	if err != nil {
		t.Fatal(err)
	}
	if want := countVowels(testText); got != want {
		t.Fatalf("vowels = %d, want %d", got, want)
	}
	if d.Units() == 0 {
		t.Error("donor reports zero completed units")
	}
	// The Watch stream re-exported through the facade ends with a
	// finished event.
	var last core.Event
	for ev := range events {
		last = ev
	}
	if last.Kind != core.EventFinished {
		t.Errorf("last event = %v, want finished", last.Kind)
	}
}

// byteVowelAlg is the byte-level Algorithm shape: it decodes shared data
// and payloads itself instead of going through the typed adapter.
type byteVowelAlg struct{ text []byte }

func (a *byteVowelAlg) Init(shared []byte) error {
	sd, err := core.Decode[vowelShared](shared)
	if err != nil {
		return err
	}
	a.text = []byte(sd.Text)
	return nil
}

func (a *byteVowelAlg) ProcessCtx(_ context.Context, payload []byte) ([]byte, error) {
	span, err := core.Decode[vowelSpan](payload)
	if err != nil {
		return nil, err
	}
	var count int64
	for _, b := range a.text[span.From:span.To] {
		switch b {
		case 'a', 'e', 'i', 'o', 'u':
			count++
		}
	}
	return core.Encode(vowelCount{N: count})
}

// TestByteLevelAlgorithmThroughFacade runs the same problem with a
// byte-level algorithm registered through RegisterAlgorithm; it must
// interoperate with the typed server side unchanged.
func TestByteLevelAlgorithmThroughFacade(t *testing.T) {
	register()
	dm := &vowelDM{textLen: len(testText), chunk: 9, inflight: make(map[int64]int)}
	p, err := core.NewTypedProblem[vowelSpan, vowelCount]("vowels-bytes", dm, vowelShared{Text: testText})
	if err != nil {
		t.Fatal(err)
	}
	// Point the units at the byte-level algorithm's name.
	relabel := relabelDM{inner: p.DM, algorithm: "core-test/vowels-bytes"}
	p.DM = &relabel
	out, err := core.RunLocal(context.Background(), p, 2, core.Fixed(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decode[int64](out)
	if err != nil {
		t.Fatal(err)
	}
	if want := countVowels(testText); got != want {
		t.Fatalf("byte-level vowels = %d, want %d", got, want)
	}
}

// relabelDM rewrites the algorithm name on units of an inner DataManager.
type relabelDM struct {
	inner     core.DataManager
	algorithm string
}

func (r *relabelDM) NextUnit(budget int64) (*core.Unit, bool, error) {
	u, ok, err := r.inner.NextUnit(budget)
	if u != nil {
		u.Algorithm = r.algorithm
	}
	return u, ok, err
}

func (r *relabelDM) Consume(id int64, payload []byte) error { return r.inner.Consume(id, payload) }
func (r *relabelDM) Done() bool                             { return r.inner.Done() }
func (r *relabelDM) FinalResult() ([]byte, error)           { return r.inner.FinalResult() }

// TestRunLocalContextCancel: cancelling the RunLocal context must abort
// the run promptly with the context's error instead of computing to
// completion.
func TestRunLocalContextCancel(t *testing.T) {
	register()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run even starts
	_, err := core.RunLocal(ctx, newVowelProblem(t, "vowels-cancel", 3), 2, core.Fixed(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunLocal on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestPolicyConstructors(t *testing.T) {
	if core.Fixed(100).Budget(core.DonorStats{}, 0, 1) != 100 {
		t.Error("Fixed budget wrong")
	}
	a := core.Adaptive(2 * time.Second)
	if b := a.Budget(core.DonorStats{}, 0, 1); b <= 0 {
		t.Errorf("Adaptive bootstrap budget %d", b)
	}
	for _, spec := range []string{"fixed:10", "adaptive:1s", "gss", "factoring", "tss"} {
		if _, err := core.PolicyByName(spec); err != nil {
			t.Errorf("PolicyByName(%q): %v", spec, err)
		}
	}
	if _, err := core.PolicyByName("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}
