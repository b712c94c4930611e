package router

import (
	"context"
	"encoding/base64"
	"fmt"
	"math"
	"time"
)

// Fleet rollout: push a new artifact generation replica-by-replica,
// gating every step on a canary probe set. Each replica first *stages*
// the artifact and prices the canaries on the staged (non-serving)
// estimator; only if those predictions match the expected outputs
// byte-for-byte does the replica *commit*. The first mismatch aborts
// the rollout: the failing replica's stage is discarded (it never
// served a byte of the new generation) and every replica that already
// committed is rolled back in reverse order — so a failed rollout
// leaves the whole fleet serving the old generation.
//
// The byte-for-byte gate is the serving contract turned into an
// admission test: every layer below guarantees the same artifact
// prices a query to the same float64 bits, so any replica whose staged
// canaries differ from the reference is either running different bytes
// or corrupting them — exactly what must not reach traffic.

// RolloutRequest is the /rollout body (and the Rollout argument).
type RolloutRequest struct {
	// ArtifactB64 is the new artifact, base64-encoded; the router ships
	// it in-band to every replica.
	ArtifactB64 string `json:"artifact_b64,omitempty"`
	// Path is a replica-local artifact path, for fleets with shared
	// storage; ignored when ArtifactB64 is set.
	Path string `json:"path,omitempty"`
	// CanaryEnv/CanarySQLs is the probe set every replica must price on
	// its staged estimator before committing. Empty disables the gate
	// (stage+commit with no comparison) — for operators who have
	// verified the artifact elsewhere.
	CanaryEnv  int      `json:"canary_env,omitempty"`
	CanarySQLs []string `json:"canary_sqls,omitempty"`
	// ExpectedMs anchors the canary comparison. When empty, the first
	// replica's staged predictions become the reference for the rest of
	// the fleet — which verifies fleet *agreement*; supply explicit
	// expectations (e.g. priced locally from the artifact) to also
	// verify the first replica.
	ExpectedMs []float64 `json:"expected_ms,omitempty"`
}

// RolloutStep records what happened on one replica.
type RolloutStep struct {
	Replica    string `json:"replica"`
	Staged     string `json:"staged,omitempty"` // staged generation
	Committed  bool   `json:"committed"`        // new generation went live here
	RolledBack bool   `json:"rolled_back"`      // commit later undone
	Error      string `json:"error,omitempty"`  // stage/canary/commit failure
}

// RolloutResult is the /rollout reply.
type RolloutResult struct {
	OK bool `json:"ok"`
	// Generation the fleet serves after the rollout: the new artifact's
	// on success, the old one's after a rollback.
	Generation string        `json:"generation,omitempty"`
	Steps      []RolloutStep `json:"steps"`
	Error      string        `json:"error,omitempty"`
}

// Rollout pushes req's artifact through the fleet in configured replica
// order. It returns a non-nil error only for request-level problems
// (admin disabled, undecodable artifact); a canary or replica failure
// is reported in the result with OK=false after the rollback completes.
func (rt *Router) Rollout(ctx context.Context, req RolloutRequest) (RolloutResult, error) {
	if rt.opts.AdminToken == "" {
		return RolloutResult{}, fmt.Errorf("router: rollout disabled (no admin token configured)")
	}
	var artifact []byte
	if req.ArtifactB64 != "" {
		b, err := base64.StdEncoding.DecodeString(req.ArtifactB64)
		if err != nil {
			return RolloutResult{}, fmt.Errorf("router: artifact_b64: %w", err)
		}
		artifact = b
	} else if req.Path == "" {
		return RolloutResult{}, fmt.Errorf("router: rollout needs artifact_b64 or path")
	}

	res := RolloutResult{Steps: make([]RolloutStep, len(rt.replicas))}
	expected := req.ExpectedMs
	var committed []int
	fail := func(i int, err error) RolloutResult {
		res.Steps[i].Error = err.Error()
		res.Error = fmt.Sprintf("replica %s: %v", rt.replicas[i].id, err)
		res.Generation = rt.rollbackCommitted(ctx, committed, &res)
		rt.rollbacks.Add(1)
		return res
	}
	for i, rep := range rt.replicas {
		res.Steps[i].Replica = rep.id
		sctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
		stage, err := rep.client.SwapStage(sctx, artifact, req.Path, req.CanaryEnv, req.CanarySQLs)
		cancel()
		if err != nil {
			return fail(i, fmt.Errorf("stage: %w", err)), nil
		}
		res.Steps[i].Staged = stage.Staged
		if len(req.CanarySQLs) > 0 {
			if expected == nil {
				expected = stage.CanaryMs
			} else if err := compareCanary(expected, stage.CanaryMs); err != nil {
				// The gate: this replica's staged estimator disagrees.
				// Discard its stage (best effort — it is not serving the
				// new generation either way) and unwind the fleet.
				actx, acancel := context.WithTimeout(ctx, rt.opts.Timeout)
				rep.client.SwapAbort(actx) //nolint:errcheck
				acancel()
				return fail(i, fmt.Errorf("canary: %w", err)), nil
			}
		}
		cctx, ccancel := context.WithTimeout(ctx, rt.opts.Timeout)
		commit, err := rep.client.SwapCommit(cctx)
		ccancel()
		if err != nil {
			return fail(i, fmt.Errorf("commit: %w", err)), nil
		}
		res.Steps[i].Committed = true
		committed = append(committed, i)
		res.Generation = commit.Generation
		rep.lastGen.Store(commit.Generation)
		if rt.opts.RolloutBakeTime > 0 && i < len(rt.replicas)-1 {
			select {
			case <-ctx.Done():
				return fail(i, fmt.Errorf("bake interrupted: %w", ctx.Err())), nil
			case <-time.After(rt.opts.RolloutBakeTime):
			}
		}
	}
	res.OK = true
	rt.rollouts.Add(1)
	return res, nil
}

// rolloutBudget bounds how long Rollout runs: a stage and a commit per
// replica with a bake between commits, one canary abort, and a rollback
// of every committed replica, each round trip capped at Timeout.
func (rt *Router) rolloutBudget() time.Duration {
	n := time.Duration(len(rt.replicas))
	return n*(3*rt.opts.Timeout+rt.opts.RolloutBakeTime) + rt.opts.Timeout
}

// rollbackCommitted unwinds already-committed replicas in reverse
// commit order and returns the generation the fleet is back on (from
// the last successful rollback reply; "" when nothing was committed).
// Best effort: a replica whose rollback RPC fails keeps the new
// generation and the failure is recorded on its step.
func (rt *Router) rollbackCommitted(ctx context.Context, committed []int, res *RolloutResult) string {
	gen := ""
	for k := len(committed) - 1; k >= 0; k-- {
		i := committed[k]
		rep := rt.replicas[i]
		rctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
		resp, err := rep.client.SwapRollback(rctx)
		cancel()
		if err != nil {
			res.Steps[i].Error = fmt.Sprintf("rollback: %v", err)
			continue
		}
		res.Steps[i].RolledBack = true
		gen = resp.Generation
		rep.lastGen.Store(resp.Generation)
	}
	return gen
}

// compareCanary demands bitwise equality between the reference and a
// replica's staged canary predictions.
func compareCanary(want, got []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("probe count mismatch: %d predictions for %d probes", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("probe %d: staged estimator predicts %v, expected %v (bitwise)", i, got[i], want[i])
		}
	}
	return nil
}
