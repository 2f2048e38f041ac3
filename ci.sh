#!/usr/bin/env bash
# Repo CI: formatting, lints, tier-1 tests, and audit-subsystem guards.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + tests =="
cargo build --release
cargo test -q

echo "== full workspace tests =="
cargo test --workspace --release -q

echo "== benchmark crate: builds and passes its tests against the current API =="
# e2e_bench is its own workspace with path deps on the crates; building it
# here makes a crate API change that breaks the benchmark fail CI.
cargo test --release --offline --manifest-path e2e_bench/Cargo.toml

echo "== zero-alloc gate: steady-state fast path allocates nothing =="
# Counting-allocator proof that a warm resolve/open/read/close/getuid
# cycle under the full Protego LSM performs zero heap allocations
# (interner + dcache + path arenas end to end).
cargo test -q -p protego-core --features alloc-count --test fastpath_alloc

echo "== smoke bench: BENCH_table5.json regenerates and validates =="
# Low-iteration run of the Table 5 micro/macro/hot-path rows with the
# paired interleaved median-of-K micro protocol; fails if the document
# is missing, malformed, the hot-path speedups regress below 2x, or the
# caches report zero hits. The committed full document must carry the
# bench_table5/v2 schema (paired micro samples embedded) and pass the
# per-row <=10% micro overhead budget that bench-verify enforces on
# full runs.
cargo run --release -p bench --bin tables -- bench-json --quick --out target/BENCH_table5.smoke.json
cargo run --release -p bench --bin tables -- bench-verify target/BENCH_table5.smoke.json
test -s BENCH_table5.json || { echo "error: committed BENCH_table5.json missing" >&2; exit 1; }
grep -q '"schema": *"bench_table5/v2"' BENCH_table5.json \
    || { echo "error: committed BENCH_table5.json is not schema bench_table5/v2" >&2; exit 1; }
cargo run --release -p bench --bin tables -- bench-verify BENCH_table5.json

echo "== smoke fleet: one kernel, many workers =="
# Tiny shared-kernel fleets (1/8 workers, web + mail, both modes) plus a
# soak of two 1-worker half-fleets under a seeded 1% errno storm. The
# subcommand re-runs the whole matrix and fails unless every
# op/fault/syscall count reproduces per seed (fault-free points are
# interleaving-independent; a 1-worker storm has no interleaving), the
# overheads are finite, and the soak ends with zero panics and zero
# privileged artifacts. bench-verify re-checks the emitted and the
# committed bench_macro/v3 documents.
cargo run --release -p bench --bin tables -- bench-macro --smoke --out target/BENCH_macro.smoke.json
cargo run --release -p bench --bin tables -- bench-verify target/BENCH_macro.smoke.json
test -s BENCH_macro.json || { echo "error: committed BENCH_macro.json missing" >&2; exit 1; }
cargo run --release -p bench --bin tables -- bench-verify BENCH_macro.json

echo "== smoke profile: pathway attribution covers dispatched time =="
# Reduced-op run of the overhead-attribution pipeline on both images; the
# subcommand fails unless >=95% of dispatched wall time is attributed to
# named kernel pathways, and bench-verify re-checks the emitted document
# against the bench_profile/v1 schema (schema-stability guard).
cargo run --release -p bench --bin tables -- profile --smoke --out target/BENCH_profile.smoke.json
cargo run --release -p bench --bin tables -- bench-verify target/BENCH_profile.smoke.json

echo "== smoke seccomp: committed profiles are fresh and enforce cleanly =="
# Re-derives the per-binary allowlists from the battery + workloads
# (derivation is deterministic: fixed op counts) and fails if the
# committed SECCOMP_PROFILES.json differs byte-for-byte; --smoke then
# re-runs the Protego functional battery under enforcement and fails on
# any step-outcome change or violation. bench-verify re-checks the
# committed document against the seccomp_profiles/v1 schema and the
# <50% average-reachability ceiling.
cargo run --release -p bench --bin tables -- seccomp-derive --smoke --check
cargo run --release -p bench --bin tables -- bench-verify SECCOMP_PROFILES.json

echo "== smoke ablations: the ablation studies still run =="
# Low-iteration run of the netfilter, auth-window and whitelist-scaling
# (10..10,000 rules) ablations; it gates on nothing but completing, so
# the ablation code cannot rot. The printed timings carry no bound.
cargo run --release -p bench --bin tables -- ablations --quick

echo "== span-timing feature compiles out cleanly =="
# The no-default-features build makes span timing a constant no-op (no
# shard is ever created); keep that configuration compiling, and run the
# kernel's unit tests in it so the compiled-out paths are tested too.
cargo check -q -p sim-kernel --no-default-features
cargo test -q -p sim-kernel --no-default-features --lib

echo "== smoke replay: recorded syscall trace replays deterministically =="
# Records the full functional battery through the dispatch boundary and
# replays a fresh boot against it; fails on any divergence.
cargo run --release -p bench --bin tables -- replay-smoke

echo "== smoke fuzz: adversarial differential scenarios =="
# Fixed-seed tier of the scenario fuzzer (5 families x 32 seeds): every
# scenario runs under legacy and Protego with the equivalence /
# determinism / security oracles armed, and the campaign self-checks
# that generation is a pure function of the seed. The double run then
# proves the whole pipeline — generation, execution, reporting — is
# byte-identical per seed.
cargo run --release -p bench --bin tables -- fuzz --smoke | tee target/fuzz.smoke.1.txt
cargo run --release -p bench --bin tables -- fuzz --smoke > target/fuzz.smoke.2.txt
cmp target/fuzz.smoke.1.txt target/fuzz.smoke.2.txt \
    || { echo "error: fuzz smoke output is not deterministic across runs" >&2; exit 1; }

echo "== docs: sim-kernel + bench rustdoc is warning-clean =="
RUSTDOCFLAGS="-D warnings" cargo doc -p sim-kernel -p bench --no-deps --quiet

echo "== guard: no string-formatted audit calls =="
# The legacy unbounded string log is gone; decisions must go through the
# typed emit_* API so provenance and metrics stay complete.
if grep -rn "audit_event(format!" --include='*.rs' crates src examples benches 2>/dev/null; then
    echo "error: string audit_event(format!(..)) call sites found; use emit_lsm_event/emit_kernel_event" >&2
    exit 1
fi

echo "== guard: kernel panic sites do not grow =="
# Counts `unreachable!(`, `.expect(` and `panic!(` in crates/kernel/src,
# skipping comment lines and every item under `#[cfg(test)]` (a test
# module is skipped to its closing brace). The bound is today's count;
# lower it as panic sites are removed, never raise it.
PANIC_SITE_LIMIT=19
panic_sites=$(find crates/kernel/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { skip = 0; pending = 0; depth = 0 }
    /^[[:space:]]*\/\// { next }
    skip {
        depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        if (depth <= 0) skip = 0
        next
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
    pending && /^[[:space:]]*#\[/ { next }
    pending {
        pending = 0
        depth = gsub(/\{/, "{") - gsub(/\}/, "}")
        if (depth > 0) skip = 1
        next
    }
    { n += gsub(/unreachable!\(|\.expect\(|panic!\(/, "&") }
    END { print n + 0 }')
echo "kernel panic sites outside #[cfg(test)]: ${panic_sites} (limit ${PANIC_SITE_LIMIT})"
if [ "${panic_sites}" -gt "${PANIC_SITE_LIMIT}" ]; then
    echo "error: ${panic_sites} panic sites in crates/kernel/src exceed ${PANIC_SITE_LIMIT}" >&2
    exit 1
fi

echo "CI OK"
