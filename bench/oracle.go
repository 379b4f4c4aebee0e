package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/dist"
	"repro/internal/phylo"
)

// expected.json holds the known answers, keyed by workload, scale and seed.
// `-record <path to expected.json>` adds or replaces the entries of the
// seed it is run with.
//
//go:embed expected.json
var expectedJSON []byte

// answer is what the oracle knows about one workload's final result: the
// digest of a DSEARCH hit list, or a DPRml tree with its log-likelihood.
type answer struct {
	Digest string  `json:"digest,omitempty"`
	LogL   float64 `json:"logl,omitempty"`
	Newick string  `json:"newick,omitempty"`
}

// matches reports how got differs from want: hit lists must be identical,
// trees must have the same topology and a log-likelihood within 1e-6
// relative.
func (want answer) matches(got answer) error {
	if want.Digest != got.Digest {
		return fmt.Errorf("hit-list digest %.12s…, want %.12s…", got.Digest, want.Digest)
	}
	if want.Newick == "" {
		return nil
	}
	if math.Abs(got.LogL-want.LogL) > 1e-6*math.Abs(want.LogL) {
		return fmt.Errorf("log-likelihood %.9f, want %.9f", got.LogL, want.LogL)
	}
	wt, err := phylo.ParseNewick(want.Newick)
	if err != nil {
		return err
	}
	gt, err := phylo.ParseNewick(got.Newick)
	if err != nil {
		return err
	}
	rf, err := phylo.RobinsonFoulds(wt, gt)
	if err != nil {
		return err
	}
	if rf != 0 {
		return fmt.Errorf("tree topology differs from the expected one (Robinson-Foulds distance %d)", rf)
	}
	return nil
}

func oracleKey(workload, scale string, seed int64) string {
	return fmt.Sprintf("%s/%s/%d", workload, scale, seed)
}

func loadOracle(data []byte) (map[string]answer, error) {
	oracle := make(map[string]answer)
	if err := json.Unmarshal(data, &oracle); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return oracle, nil
}

// reference computes a workload's answer without the network: a fresh copy
// of the problem run on one in-process worker, so units are cut and folded
// strictly one after another. A workload whose check is a complete verdict
// has no answer to compute.
func reference(ctx context.Context, w *workload, seed int64, sc *scale) (answer, error) {
	inst, err := w.build(seed, sc)
	if err != nil {
		return answer{}, err
	}
	if inst.answer == nil {
		return answer{}, nil
	}
	out, err := dist.RunLocal(ctx, inst.problem, 1, w.policy)
	if err != nil {
		return answer{}, err
	}
	return inst.answer(out)
}

// record writes the answers the rounds of this run agreed on into the
// expected.json at path.
func record(path string, answers map[string]answer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	oracle, err := loadOracle(data)
	if err != nil {
		return err
	}
	for k, a := range answers {
		oracle[k] = a
	}
	out, err := json.MarshalIndent(oracle, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
