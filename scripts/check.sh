#!/bin/sh
# check.sh — the repository's pre-merge gate: formatting, vet, and the
# full test suite under the race detector. Run via `make check`.
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go test -race -shuffle=on ./...

# Chaos-recovery gate: the guardrail subsystem's end-to-end guarantee —
# injected NaN poisoning, torn checkpoints, and exploding learning rates
# must all recover via rollback + backoff — exercised explicitly under
# the race detector (the parallel trainer's guard checks run at segment
# barriers and must stay race-clean). -count=1 defeats the test cache so
# the gate always actually runs.
go test -race -count=1 -run '^TestChaos' ./internal/fault
echo "chaos-recovery gate ok"

# Short fuzz smoke over the model-file loader: a few seconds of random
# inputs against the corrupt-file handling, on top of the seed corpus the
# regular tests already replay. The corpus seeds all three format
# versions, including v3 float32 files with flipped section/header bytes.
go test -run='^$' -fuzz='^FuzzLoad$' -fuzztime=5s ./internal/store

# Store v3 gate: round-trip, mmap load/Verify/Close, and the corruption
# matrix (truncation at every boundary, CRC flips, non-canonical section
# offsets) must all be clean errors, never panics. -count=1 defeats the
# test cache so the gate always actually runs.
go test -race -count=1 -run '^Test(SaveF32|V3|LoadMapped|V1V2)' ./internal/store
echo "store v3 gate ok"

# IVF fuzz smoke: adversarial factor matrices (NaN/Inf rows, zero norms,
# duplicates, nlist > items) against index construction and full-width
# search invariants.
go test -run='^$' -fuzz='^FuzzIVFBuild$' -fuzztime=5s ./internal/retrieval

# IVF retrieval smoke: build the index on a seeded world, query every
# user, and hold the recall@10 floor against exact retrieval — under the
# race detector because the index is queried concurrently in serving.
# -count=1 defeats the test cache so the gate always actually runs.
go test -race -count=1 -run '^TestIVFSmoke$' ./internal/retrieval
echo "ivf retrieval smoke ok"

# One-path gate: exact retrieval is the single-cell view scanned by the
# IVF kernel, so for random float64, float32 and overlay-wrapped models
# (NaN/Inf rows and biases, exclusions at both id ends, k beyond the
# candidates and k <= 0) the view's fused sweep must equal the dense
# two-pass ScoreAll + TopKDropped ranking bit for bit, and an IVF index
# over an overlaid float32 base must keep the float32 layout. -count=1
# defeats the test cache so the gate always actually runs.
go test -race -count=1 -run '^Test(ExactView|BuildIVFOverlayF32)' ./internal/retrieval
echo "exact one-path gate ok"

# Batch-IVF gate: the /recommend/batch endpoint must answer through the
# installed retrieval index exactly like the single-request path (no
# silent dense fall-back), keep cache keys mode-scoped, stay consistent
# across retrieval mode flips with batches in flight, and give the same
# lists when its entries fan out over several goroutines — the flip and
# fan-out tests race goroutines, hence the race detector. The cache-fill
# race (a fill computed before an online update's invalidation must not
# be stored after it) is pinned deterministically and raced end to end
# against POST /feedback. -count=1 defeats the test cache so the gate
# always actually runs.
go test -race -count=1 -run '^Test(BatchIVF|BatchParallel|FanOut|ModeFlip|ServeFloat32|CacheFillRefused)' ./internal/serve
go test -race -count=1 -run '^TestFeedbackCacheFillRace$' ./internal/feedback
echo "batch-ivf gate ok"

# Serve load-test smoke: a tiny single/batch/cached sweep through a live
# loopback server — including the float32-vs-float64 kernel arms and the
# quantization parity check — so a serving regression fails the gate
# before the full scripts/bench.sh run would catch it.
go run ./cmd/clapf-bench -exp serve -dataset ML100K -scale 0.05 \
	-requests 60 -batch 16 -kernel-items 4096 >/dev/null
echo "serve smoke ok"

# Trace smoke: end-to-end tracing under the race detector — a request
# must land in /debug/traces with parent/child spans and populate the
# per-stage histogram. -count=1 defeats the test cache so the gate
# always actually runs.
go test -race -count=1 -run '^TestTraceSmoke' ./internal/serve
echo "trace smoke ok"

# Cluster chaos gate: the sharded-serving guarantee — with one of three
# shards killed mid-load, availability stays >= 99%, every below-fresh
# answer carries a degradation label, the victim's breaker opens, and
# the shard is readmitted after recovery. Run under the race detector:
# the router's hot path (hedges, breaker state, stale cache) is all
# shared-state concurrency. -count=1 defeats the test cache.
go test -race -count=1 -run '^TestClusterChaos' ./internal/cluster
echo "cluster chaos gate ok"

# Feedback chaos gate: the crash-safe ingest guarantee — zero
# acknowledged-but-lost events across torn-tail and group-commit
# crashes, post-replay factors byte-identical to an uninterrupted run
# even when the crash lands between the watermarked export and the hot
# swap, and a failed promotion leaves the old generation serving. Under
# the race detector: ingest, overlay rebuilds, and promotion all share
# the consistency lock. -count=1 defeats the test cache.
go test -race -count=1 -run '^TestFeedbackChaos' ./internal/feedback
echo "feedback chaos gate ok"

# WAL decoder fuzz smoke: random and mutated segment bodies against the
# frame decoder (torn tails, bit flips, length lies) plus whole-file
# recovery — decode must be a clean prefix parse, never a panic, and
# recovery must leave an appendable log or fail outright.
go test -run='^$' -fuzz='^FuzzReplay$' -fuzztime=5s ./internal/feedback
echo "feedback fuzz smoke ok"
