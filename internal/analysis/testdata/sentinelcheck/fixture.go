// Fixture for sentinelcheck: module sentinels must be matched with
// errors.Is, never identity comparison.
package sentinelcheck

import (
	"errors"
	"io"
)

// ErrGone is a module sentinel: package-level, exported, Err-prefixed.
var ErrGone = errors.New("gone")

// errLocal is unexported and therefore not a sentinel.
var errLocal = errors.New("local")

func compare(err error) bool {
	if err == ErrGone { // want "sentinel ErrGone compared with =="
		return true
	}
	if err != ErrGone { // want "sentinel ErrGone compared with !="
		return false
	}
	if errors.Is(err, ErrGone) { // the sanctioned form
		return true
	}
	if err == errLocal { // unexported: not a sentinel
		return true
	}
	if err == io.EOF { // stdlib identity contracts are left alone
		return true
	}
	return err == nil
}

func classify(err error) int {
	switch err {
	case nil:
		return 0
	case ErrGone: // want "sentinel ErrGone matched by switch case"
		return 1
	case io.EOF:
		return 2
	}
	return 3
}
