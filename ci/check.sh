#!/usr/bin/env sh
# CI gate: formatting, lints (warnings are errors), build, full test suite.
# Run from the repository root. Offline by design — every dependency is a
# workspace path crate (see compat/README.md).
set -eu

cargo fmt --check
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline
cargo build --release --offline --examples
cargo test -q --offline
# The serving stack's integration tests exercise threads, sockets, and
# shutdown paths — run them explicitly so a filtered test invocation can
# never silently skip them. fleet_smoke adds the multi-model tier on
# top: routed dispatch bit-identity, typed unknown-model rejection,
# zero-drop hot-swap, and exact merged-telemetry accounting.
cargo test -q --offline --test serve_smoke
cargo test -q --offline --test fleet_smoke
cargo test -q --offline -p tfe-fleet
# The generalized-geometry grid (stride x dilation x groups x scheme)
# pins engine-vs-reference bit-identity and counter exactness on
# depthwise, grouped, and dilated stages — run the target explicitly so
# geometry regressions cannot hide behind a filtered invocation.
cargo test -q --offline --test geometry_parity
# The execution-mode grid pins the weight plan's compressed-sparse
# executor bit-identical to the dense sweep (activations, per-image
# counter streams, per-layer telemetry sums) across scheme x stride x
# dilation x batch, and the default policy's mode choices.
cargo test -q --offline --test mode_parity
# The telemetry crate's seqlock ring and exact-decomposition invariants
# are load-bearing for every observability surface — build and test the
# crate explicitly (its concurrent-writer tests included).
cargo build --release --offline -p tfe-telemetry
cargo test -q --offline -p tfe-telemetry
cargo test -q --offline --test telemetry
# Compile every bench target (including telemetry_overhead, which pins
# the enabled-sink cost at < 3 %) so bench code cannot rot between
# releases.
cargo bench --offline --no-run
# Rustdoc is part of the public surface: broken intra-doc links or
# malformed docs fail the gate just like clippy warnings do.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# The end-to-end benchmark is a workspace of its own that builds against
# the crates' public API (ExecMode, ModePolicy, Engine::compile_with_policy,
# ...): build and test it here so an API change fails this gate rather
# than the benchmark run.
cargo test -q --offline --manifest-path e2ebench/Cargo.toml
# BENCH=1 additionally runs the timing acceptance benches — the
# compile/run-split steady-state speedup (pinned >= 2x on the
# compile-bound cell), the filter-stationary batched sweep (pinned
# >= 1.3x images/sec at batch 8 on the dense cells, >= 0.97x at batch 1,
# bit-identity asserted first), the monomorphized row kernels (pinned
# >= 1.25x over the frozen scalar reference), the telemetry-sink
# overhead pin, and the fleet router-dispatch overhead (pinned < 3 % vs
# single-model serving). engine_speedup now carries a depthwise-separable
# cell and engine_batch a dilated cell, so the generalized-geometry paths
# are in the timed sweep too. engine_modes times the weight plan's
# compressed-sparse executor against the dense sweep on the same network
# (bit-identity asserted before timing) — pinned >= 1.2x at 90 %
# sparsity; the 50/70 % cells are recorded unpinned to chart the
# crossover. engine_speedup, engine_batch,
# engine_modes, ppsr_row, and fleet_router write their min-of-reps cells
# into BENCH_10.json at the repo root (the persistent perf trajectory;
# see README "Perf trajectory"), printed below so the numbers land in
# the check output.
if [ "${BENCH:-0}" = "1" ]; then
    cargo bench --offline -p tfe-bench --bench engine_speedup
    cargo bench --offline -p tfe-bench --bench engine_batch
    cargo bench --offline -p tfe-bench --bench engine_modes
    cargo bench --offline -p tfe-bench --bench ppsr_row
    cargo bench --offline -p tfe-bench --bench telemetry_overhead
    cargo bench --offline -p tfe-bench --bench fleet_router
    echo "--- BENCH_10.json (perf trajectory) ---"
    cat BENCH_10.json
fi
