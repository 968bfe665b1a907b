#!/usr/bin/env bash
# The full local gate, in the order CI would run it: formatting, the
# nezha-lint determinism/panic-safety pass, lints as errors, then every
# test of every workspace crate.
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the full test suite (quick pre-commit run); still runs
#            the stage-graph equivalence smoke (combinator pipeline vs
#            the legacy reference semantics, plus the exact cost-plan
#            reconciliation properties), the reduced chaos smoke scenario
#            so the fault-injection path is never shipped unexercised,
#            plus the profiler smoke run
#            (`experiments profile` self-asserts its cycle reconciliation)
#            and the observability smoke (`experiments watch` runs the
#            windowed chaos scenario and asserts the SLO watchdog fires).
#            nezha-lint runs only on .rs files changed vs origin/main
#            (the symbol index is still built workspace-wide, so D8-D11
#            cross-file reasoning stays exact).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    *)
        echo "usage: scripts/check.sh [--fast]" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> scripts/file_size_guard.sh"
./scripts/file_size_guard.sh

if [ "$fast" -eq 1 ]; then
    # Only lint files changed vs the merge base with origin/main; pass 1
    # still indexes the whole workspace, so graph rules see every caller.
    base=$(git merge-base HEAD origin/main 2>/dev/null || git rev-parse HEAD)
    changed=()
    while IFS= read -r f; do
        [[ -f "$f" && "$f" != *fixtures* ]] && changed+=("$f")
    done < <(git diff --name-only "$base" -- '*.rs'; git ls-files --others --exclude-standard -- '*.rs')
    if [ "${#changed[@]}" -gt 0 ]; then
        echo "==> nezha-lint --stale-allows --deny-warnings   (--fast: ${#changed[@]} changed file(s))"
        cargo run -q -p nezha-lint -- --stale-allows --deny-warnings "${changed[@]}"
    else
        echo "==> nezha-lint   (--fast: no .rs files changed vs origin/main, skipped)"
    fi
else
    echo "==> nezha-lint --workspace --stale-allows --deny-warnings"
    cargo run -q -p nezha-lint -- --workspace --stale-allows --deny-warnings
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [ "$fast" -eq 1 ]; then
    echo "==> cargo test -q -p nezha-vswitch --test stage_graph_properties   (--fast: graph-equivalence smoke)"
    cargo test -q -p nezha-vswitch --test stage_graph_properties
    echo "==> cargo test -q --test chaos smoke_   (--fast: reduced chaos scenario)"
    cargo test -q --test chaos smoke_
    echo "==> experiments profile   (--fast: profiler smoke, artifacts to target/profile-smoke)"
    mkdir -p target/profile-smoke
    NEZHA_PROFILE_DIR=target/profile-smoke cargo run -q --release -p nezha-bench --bin experiments -- profile
    echo "==> experiments bench --config=region10k_smoke   (--fast: shard-equivalence smoke)"
    cargo run -q --release -p nezha-bench --bin experiments -- bench --config=region10k_smoke
    echo "==> experiments watch   (--fast: observability smoke, self-asserts >=1 SLO event)"
    cargo run -q --release -p nezha-bench --bin experiments -- watch
    echo "All checks passed (--fast: full test suite skipped)."
else
    echo "==> cargo test -q --workspace"
    cargo test -q --workspace
    echo "==> cargo test -q --test chaos   (fault-injection suite)"
    cargo test -q --test chaos
    echo "All checks passed."
fi
