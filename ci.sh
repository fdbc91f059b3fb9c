#!/usr/bin/env bash
# Offline CI for the Distill reproduction: the tier-1 verify plus a
# compile-check of every bench target and a reduced-workload figures run.
# No step may touch the network; CARGO_NET_OFFLINE makes cargo fail fast if
# anything ever tries.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release)"
cargo build --release --workspace

echo "== clippy (warnings denied)"
cargo clippy --workspace -- -D warnings

echo "== test"
cargo test -q --workspace

echo "== benchmark suite (perfbench's own tests: its contract with the public API)"
# perfbench/ is a separate workspace, so the step above does not build it; a
# change to PassStats, the pass API or another public item it reads would
# otherwise break the benchmark unnoticed.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== benches compile"
cargo bench --no-run --workspace

echo "== docs (warnings denied, so API-doc drift fails the gate)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== examples (release; exercises the Session/Runner API end to end)"
cargo run --release --example quickstart
cargo run --release --example predator_prey_attention
cargo run --release --example model_analysis

echo "== serving smoke (bounded open-loop run, served-vs-solo bit-identity, trace export)"
# Starts a distill-serve daemon, drives the registry's serve mix with
# concurrent open-loop clients, and verifies a sample of coalesced
# responses bitwise against solo reruns; exits non-zero on any mismatch.
# Also exports the daemon's chrome://tracing trace to
# bench_results/trace_serve.json and re-parses it, failing unless it is
# well-formed trace_event JSON containing the documented serve spans.
cargo run --release -p distill-serve --example open_loop_smoke

echo "== serving chaos smoke (seeded worker panic absorbed, all responses still served bit-identically)"
# Same smoke with a chaos plan armed through the unified DISTILL_CHAOS
# injector: one worker panic fires mid-run on trial 3, the panicked chunk
# is quarantined, its span-mates are requeued, the client retries the
# quarantined range, and the run must still complete every request with
# responses bitwise identical to solo reruns (exit non-zero otherwise).
DISTILL_CHAOS="panic=3,seed=7"   cargo run --release -p distill-serve --example open_loop_smoke

echo "== distributed sweep smoke (2 worker processes, injected kill, bitwise vs serial, trace export)"
# Spawns a coordinator plus two true worker processes over local sockets,
# kills one worker mid-sweep via the seeded fault plan, and requires the
# merged result to be bitwise identical to a serial run with the killed
# worker's lease visibly re-issued; exits non-zero otherwise. Also exports
# the coordinator's lease-lifecycle trace to bench_results/trace_dsweep.json
# and validates it the same way.
cargo run --release -p distill-sweep --example dsweep_smoke

echo "== figures (reduced workloads incl. the sweep + fused + tiers + serve + dsweep figures, JSON to bench_results/)"
# The default run covers every figure, including `sweep` — the reduced
# registry sweep (serial vs sharded+batched per family, bit-identity
# verified) — `fused` (the superinstruction path vs the unfused predecoded
# interpreter), `tiers` (direct-threaded dispatch vs the fused
# interpreter, plus the adaptive tier-up probe), `serve` (the serving
# daemon's coalesced throughput vs sequential solo replay), `dsweep`
# (the distributed sweep with a seeded worker kill vs serial), `chaos`
# (open-loop serving clean vs with a seeded worker panic absorbed) and
# `telemetry` (the probe layer's fused-tier cost with telemetry on vs the
# kill switch thrown), all of which the gates below read.
cargo run --release -p distill-bench --bin figures

echo "== bench-diff (trajectory gate: history -> committed baseline -> fresh run)"
# The BENCH trajectory consumer, in trajectory mode: every per-PR snapshot
# committed under bench_results/history/ is walked oldest -> newest, then
# the committed baseline, then the fresh run — history transitions are
# reported, only the newest transition gates. Checks per transition:
# per-figure elapsed times within a wide wall-clock band and the interp
# median within a MAD band. Machine-independent gates on the fresh
# snapshot: the predecoded-engine speedup (>= 2x over the reference
# interpreter), the fused-superinstruction speedup (>= 1.15x over the
# predecoded interpreter, bit-identical outputs), the direct-threaded
# dispatch speedup (>= 1.05x over the fused interpreter on the cost-skewed
# anchor, bit-identical to fused and to the reference oracle, adaptive
# probe promoting and matching), the sweep subsystem's sharded+batched
# speedup (>= 1.5x over per-trial multicore grid search), the serving
# daemon's throughput bound (coalesced serving >= 0.75x of sequential solo
# replay — an overhead bound, not a speedup gate, so it holds on
# single-core runners), the distributed sweep's recovery gate (clean and
# kill-faulted runs bit-identical to serial, >= 1 lease re-issued, fault
# wall-clock within 6x of clean), the telemetry layer's overhead bound
# (fused-tier per-trial cost with probes live <= 1.05x of the same run
# with DISTILL_TELEMETRY=0 thrown, kill switch bit-identical and fully
# silent) and the sweep's and serve's bit-identity flags.
# The committed baseline records absolute timings from one machine; when
# this gate moves to a much slower host, refresh the snapshot once with
#   cargo run --release -p distill-bench --bin figures -- --out bench_results/baseline
# (the speedup and identity gates are machine-independent and keep guarding
# regardless).
HISTORY=$(ls bench_results/history/*.json 2>/dev/null | sort -V || true)
# shellcheck disable=SC2086  # word-splitting the sorted snapshot list is intended
cargo run --release -p distill-bench --bin bench-diff -- \
  $HISTORY \
  bench_results/baseline/figures.json bench_results/figures.json \
  --threshold 1.5 --min-seconds 0.1 \
  --min-interp-speedup 2.0 --min-sweep-speedup 1.5 --min-fused-speedup 1.15 \
  --min-threaded-speedup 1.05 --min-serve-throughput 0.75 \
  --max-dsweep-overhead 6.0 --max-chaos-overhead 6.0 --max-telemetry-overhead 1.05

echo "CI OK"
