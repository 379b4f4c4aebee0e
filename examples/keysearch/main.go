// Keysearch example: the cryptography workload class the paper reports
// running on the system ("bioinformatics, biomedical engineering, and
// cryptography applications"). A 3-byte key is recovered by exhaustive
// search over the keyspace: the typed DataManager partitions key ranges
// into dynamically sized units; donors hash candidate keys until one
// matches the target digest.
//
// This is an authorized toy exercise against a key generated in this very
// process — it demonstrates the divisible-workload pattern with early
// termination (once the key is found, remaining units are skipped, and the
// server's cancel notices abort any donor still scanning a doomed range).
//
// Run:
//
//	go run ./examples/keysearch
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"repro/internal/dist"
	"repro/internal/sched"
)

const keyspace = 1 << 24 // 3-byte key

// searchUnit scans keys in [From, To).
type searchUnit struct {
	From, To uint64
	Salt     []byte
	Target   []byte
}

// searchResult reports whether the unit found the key; it doubles as the
// problem's final result.
type searchResult struct {
	Found bool
	Key   uint64
}

// keyManager partitions the keyspace and stops issuing work once a unit
// reports success — an early-termination DataManager, a shape the
// bioinformatics applications don't need but cryptographic search does.
// It implements dist.TypedDM[searchUnit, searchResult].
type keyManager struct {
	salt, target []byte

	next      uint64
	completed uint64
	seq       int64
	inflight  map[int64][2]uint64
	found     bool
	key       uint64
}

func newKeyManager(salt, target []byte) *keyManager {
	return &keyManager{salt: salt, target: target, inflight: make(map[int64][2]uint64)}
}

// NextUnit implements dist.TypedDM; 1 cost unit = 1024 keys.
func (m *keyManager) NextUnit(budget int64) (*dist.UnitOf[searchUnit], bool, error) {
	if m.found || m.next >= keyspace {
		return nil, false, nil
	}
	span := uint64(budget) * 1024
	if span < 1024 {
		span = 1024
	}
	if m.next+span > keyspace {
		span = keyspace - m.next
	}
	from, to := m.next, m.next+span
	m.next = to
	m.seq++
	m.inflight[m.seq] = [2]uint64{from, to}
	return &dist.UnitOf[searchUnit]{
		ID:        m.seq,
		Algorithm: "crypto/keysearch",
		Payload:   searchUnit{From: from, To: to, Salt: m.salt, Target: m.target},
		Cost:      int64(span / 1024),
	}, true, nil
}

// Consume implements dist.TypedDM.
func (m *keyManager) Consume(unitID int64, res searchResult) error {
	span, ok := m.inflight[unitID]
	if !ok {
		return fmt.Errorf("keysearch: result for unknown unit %d", unitID)
	}
	delete(m.inflight, unitID)
	m.completed += span[1] - span[0]
	if res.Found {
		m.found = true
		m.key = res.Key
	}
	return nil
}

// Done implements dist.TypedDM: finished when the key is found, or the
// whole keyspace has been scanned without a match.
func (m *keyManager) Done() bool {
	return m.found || (m.completed >= keyspace && len(m.inflight) == 0)
}

// FinalResult implements dist.TypedDM.
func (m *keyManager) FinalResult() (any, error) {
	return searchResult{Found: m.found, Key: m.key}, nil
}

// RemainingCost implements the optional CostReporter extension.
func (m *keyManager) RemainingCost() int64 {
	if m.found {
		return 0
	}
	return int64((keyspace - m.completed) / 1024)
}

// keySearcher is the donor-side half. It implements
// dist.TypedAlgorithm[dist.NoShared, searchUnit, searchResult]: each unit
// is self-contained, so there is no shared data.
type keySearcher struct{}

// Init implements dist.TypedAlgorithm.
func (keySearcher) Init(dist.NoShared) error { return nil }

// ProcessCtx implements dist.TypedAlgorithm. The periodic context check
// makes the early-termination pattern sharp: when another donor finds the
// key and the problem finalises, the server's cancel notice aborts this
// scan instead of letting it hash out its whole doomed range.
func (keySearcher) ProcessCtx(ctx context.Context, u searchUnit) (searchResult, error) {
	var buf [8]byte
	for k := u.From; k < u.To; k++ {
		if k%16384 == 0 {
			if err := ctx.Err(); err != nil {
				return searchResult{}, err
			}
		}
		binary.BigEndian.PutUint64(buf[:], k)
		h := sha256.Sum256(append(buf[5:], u.Salt...)) // 3 key bytes + salt
		if bytes.Equal(h[:], u.Target) {
			return searchResult{Found: true, Key: k}, nil
		}
	}
	return searchResult{Found: false}, nil
}

func main() {
	dist.RegisterTypedAlgorithm("crypto/keysearch", func() dist.TypedAlgorithm[dist.NoShared, searchUnit, searchResult] {
		return keySearcher{}
	})

	// Generate the secret this run will recover.
	const secret uint64 = 0x9a5b17
	salt := []byte("ipdps05")
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], secret)
	target := sha256.Sum256(append(buf[5:], salt...))

	problem, err := dist.NewTypedProblem[searchUnit, searchResult]("keysearch", newKeyManager(salt, target[:]), dist.NoShared{})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	policy := sched.Adaptive{Target: 100 * time.Millisecond, Bootstrap: 1000, Min: 1}
	out, err := dist.RunLocal(context.Background(), problem, 8, policy)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dist.Decode[searchResult](out)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		log.Fatalf("keyspace exhausted without a match (bug)")
	}
	fmt.Printf("recovered key %#06x in %s (expected %#06x)\n",
		res.Key, time.Since(start).Round(time.Millisecond), secret)
	if res.Key != secret {
		log.Fatal("recovered the wrong key")
	}
}
