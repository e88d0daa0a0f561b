#!/usr/bin/env bash
# Hermetic CI for the buck-a4a workspace.
#
# The build environment has no crates.io access, and determinism of the
# seeded experiments depends on every dependency living in-tree. This
# script is the tier-1 verify plus the guards that keep it that way:
#
#   1. cold-cache offline release build
#   2. offline test run, each suite once: the root package (tier-1; its
#      tests/fault_injection.rs drives seeded adversarial scenarios
#      against the scheduler/analog/testbench layers and a `.g` mutation
#      fuzz through the flow and the CLI's output paths, deterministic
#      per A4A_PROP_SEED, asserting typed errors instead of panics), then
#      every other workspace package, then perfbench's own unit tests, a
#      cargo package of its own
#   3. smoke tier: every bench binary end-to-end into a scratch results
#      dir, checking CSV headers/row counts against results/, requiring
#      every regenerated CSV to equal the committed one byte for byte,
#      the ablation's printed numbers to equal results/ablation.txt, and
#      rejecting NaN/inf cells; then every example under examples/ must
#      run to a zero exit; then the `a4a` CLI writes its 18 built-in
#      specs (`a4a modules`) and must exit 0 on every one of them for
#      `verify`, `synth [--gc]`, `timing [--gc]`, `dot [--sg]`,
#      `verilog` and `verilog --gc --map`, and for one spec read from
#      `-` (stdin)
#   4. perf-counter tier: one short untraced perfbench `repro` run (the
#      repo's benchmark, see BENCHMARK.json; it calls the figure entry
#      points the benchmark times) and one short traced run, each of
#      which must be correct with zero failed ops; the traced run's
#      deterministic `count/*` work counters must equal
#      perf_counters.txt exactly — a change of work is an explicit,
#      explained update of that file
#   5. fail if any Cargo.toml re-introduces a registry (non-path)
#      dependency
#   6. fail if a library crate of the simulation stack (sim, analog,
#      core), of the formal engines (petri, stg), of synthesis (boolmin,
#      synth, netlist), of the controllers (ctrl, a2a) or the runtime
#      (rt) grows a new `unwrap()` outside #[cfg(test)], or if the
#      analog or core library grows a `panic!(` there — failures there
#      must flow through the crates' typed errors
#   7. `cargo fmt --all -- --check`: the workspace is rustfmt-clean
#   8. clippy over every target with warnings denied
#   9. rustdoc over the workspace with warnings denied (broken or
#      ambiguous intra-doc links fail)
#
# `./ci.sh --quick` runs only the build and the smoke tier (3) — the
# sub-minute loop for "did I break an experiment binary".
#
# Each tier prints its wall time (whole seconds, bash `SECONDS`) as it
# ends, and the script ends with every tier's time and the total, so a
# run of `ci.sh` is itself an end-to-end number.
set -euo pipefail
cd "$(dirname "$0")"

quick=0
if [ "${1:-}" = "--quick" ]; then
    quick=1
fi

# Wall time per tier: `tier_done <name>` closes the running tier, and
# `report_times` lists them all with the total.
tier_start=$SECONDS
tier_times=()
tier_done() {
    local took=$((SECONDS - tier_start))
    tier_times+=("$(printf '%-22s %4ds' "$1" "$took")")
    echo "    ($1: ${took}s)"
    tier_start=$SECONDS
}
report_times() {
    echo "==> wall time per tier"
    local line
    for line in "${tier_times[@]}"; do
        echo "    $line"
    done
    echo "    $(printf '%-22s %4ds' total "$SECONDS")"
}

echo "==> cargo build --release --offline"
cargo build --release --offline
tier_done "1 build"

smoke_tier() {
    echo "==> smoke tier: all bench binaries into a scratch results dir"
    local scratch
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' RETURN
    local bin
    for bin in table1 fig6 fig7a fig7b fig7c ablation; do
        echo "    running $bin"
        # The ablation batches take their root seed from A4A_PROP_SEED;
        # results/ablation.txt is the default seed's output.
        env -u A4A_PROP_SEED A4A_RESULTS_DIR="$scratch" \
            cargo run -q --release --offline -p a4a-bench --bin "$bin" \
            > "$scratch/$bin.out"
    done
    local ok=1 csv name
    for csv in results/*.csv; do
        name=$(basename "$csv")
        if [ ! -f "$scratch/$name" ]; then
            echo "ERROR: $name was not regenerated by any bench binary" >&2
            ok=0
            continue
        fi
        if ! cmp -s <(head -1 "$csv") <(head -1 "$scratch/$name"); then
            echo "ERROR: $name: CSV header changed:" >&2
            echo "    checked-in:  $(head -1 "$csv")" >&2
            echo "    regenerated: $(head -1 "$scratch/$name")" >&2
            ok=0
        fi
        if [ "$(wc -l < "$csv")" != "$(wc -l < "$scratch/$name")" ]; then
            echo "ERROR: $name: row count changed" \
                 "($(wc -l < "$csv") -> $(wc -l < "$scratch/$name"))" >&2
            ok=0
        fi
        # The experiments are deterministic: a committed result that the
        # code no longer reproduces byte for byte is stale.
        if ! cmp -s "$csv" "$scratch/$name"; then
            echo "ERROR: $name differs from its regeneration (stale result?)" >&2
            ok=0
        fi
    done
    # The ablation prints its numbers rather than writing a CSV; all but
    # its wall-time line must equal the committed output.
    if ! grep -v '^{"name":"ablation/all",' "$scratch/ablation.out" \
            | cmp -s results/ablation.txt -; then
        echo "ERROR: ablation output differs from results/ablation.txt:" >&2
        grep -v '^{"name":"ablation/all",' "$scratch/ablation.out" \
            | diff -u results/ablation.txt - >&2 || true
        ok=0
    fi
    if grep -ilnE '(nan|inf)' "$scratch"/*.csv; then
        echo "ERROR: NaN/inf cell in regenerated CSVs above" >&2
        ok=0
    fi
    if [ "$ok" -ne 1 ]; then
        exit 1
    fi
    local example
    for example in examples/*.rs; do
        example=$(basename "$example" .rs)
        echo "    running example $example"
        if ! cargo run -q --release --offline --example "$example" \
                > "$scratch/example-$example.out"; then
            echo "ERROR: example $example exited non-zero" >&2
            exit 1
        fi
    done
    cli_smoke "$scratch"
    echo "OK: smoke tier (headers, row counts, byte-identical CSVs and ablation, finite cells, examples and CLI run)"
}

# Every `a4a` command and flag set over every built-in spec, into the
# scratch dir given as $1; each run must exit 0.
cli_smoke() {
    local scratch=$1
    echo "    running the a4a CLI over its built-in specs"
    cargo build -q --release --offline -p a4a --bin a4a
    local a4a="${CARGO_TARGET_DIR:-target}/release/a4a"
    "$a4a" modules "$scratch/specs" > /dev/null
    local specs=("$scratch"/specs/*.g)
    if [ "${#specs[@]}" -ne 18 ]; then
        echo "ERROR: a4a modules wrote ${#specs[@]} specs, expected 18" >&2
        exit 1
    fi
    local runs=0 spec args
    for spec in "${specs[@]}"; do
        for args in verify synth "synth --gc" timing "timing --gc" dot "dot --sg" \
                verilog "verilog --gc --map"; do
            # Unquoted on purpose: the command and its flags split apart.
            # shellcheck disable=SC2086
            if ! "$a4a" $args "$spec" > "$scratch/cli.out" 2>&1; then
                echo "ERROR: a4a $args $spec exited non-zero:" >&2
                head -n 5 "$scratch/cli.out" >&2
                exit 1
            fi
            runs=$((runs + 1))
        done
    done
    if ! "$a4a" verify - < "${specs[0]}" > "$scratch/cli.out" 2>&1; then
        echo "ERROR: a4a verify - (stdin from ${specs[0]}) exited non-zero:" >&2
        head -n 5 "$scratch/cli.out" >&2
        exit 1
    fi
    runs=$((runs + 1))
    echo "    $runs a4a runs exited 0"
}

# Fails unless the perfbench summary line $2 (of the run named $1)
# reports a correct run with zero failed ops.
require_correct() {
    case "$2" in
        '{"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "ERROR: perfbench $1 run not correct or has failed ops:" >&2
            printf '%s\n' "$2" | head -c 400 >&2
            echo >&2
            exit 1
            ;;
    esac
}

perf_counter_tier() {
    echo "==> perf-counter tier: untraced perfbench repro run, traced run vs perf_counters.txt"
    local scratch
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' RETURN
    # The untraced repro round calls the figure entry points the benchmark
    # times (`fig7{a,b,c}_on` among them); the traced round builds its
    # own cells and never calls them.
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
        -- --workload repro --seed 1 --seconds 1 --trace 0 > "$scratch/repro.jsonl"
    require_correct "untraced repro" "$(tail -n 1 "$scratch/repro.jsonl")"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
        -- --workload flow --seed 1 --seconds 1 --trace 1 > "$scratch/out.jsonl"
    local summary
    summary=$(tail -n 1 "$scratch/out.jsonl")
    require_correct traced "$summary"
    # Every `count/*` metric as a sorted `name value` line.
    printf '%s\n' "$summary" \
        | grep -o '"[A-Za-z0-9_.]*":{"value":[^,]*,"unit":"count/[^"]*"}' \
        | sed 's/^"\([^"]*\)":{"value":\([^,]*\),.*/\1 \2/' \
        | LC_ALL=C sort > "$scratch/counters"
    if ! diff -u perf_counters.txt "$scratch/counters"; then
        echo "ERROR: perfbench work counters drifted from perf_counters.txt." >&2
        echo "    A deliberate change of work updates perf_counters.txt and" >&2
        echo "    explains the new values in CHANGES.md." >&2
        exit 1
    fi
    trap - RETURN
    rm -rf "$scratch"
    echo "OK: perf-counter tier (correct, 0 failed ops, $(wc -l < perf_counters.txt) counters match)"
}

if [ "$quick" -eq 1 ]; then
    smoke_tier
    tier_done "3 smoke"
    echo "OK: quick tier"
    report_times
    exit 0
fi

echo "==> cargo test -q --offline (tier-1: root package)"
cargo test -q --offline

# The root package is a workspace member: exclude it, or it runs twice.
echo "==> cargo test -q --offline --workspace --exclude buck-a4a"
cargo test -q --offline --workspace --exclude buck-a4a

echo "==> cargo test -q --offline --manifest-path perfbench/Cargo.toml"
cargo test -q --offline --manifest-path perfbench/Cargo.toml
tier_done "2 tests"

smoke_tier
tier_done "3 smoke"

perf_counter_tier
tier_done "4 perf counters"

echo "==> checking for registry dependencies"
# Every [dependencies*] / [dev-dependencies] entry must be either an
# in-workspace path/workspace reference or a section header. A version
# requirement string ("crate = \"1.2\"" or { version = ... }) means a
# registry dependency sneaked back in.
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Extract dependency table bodies, drop blanks/comments, then flag
    # any entry that is neither `path = ...` nor `.workspace = true`.
    offenders=$(awk '
        /^\[/ { in_dep = ($0 ~ /dependencies/) ; next }
        in_dep && NF && $0 !~ /^#/ \
               && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/ \
               && $0 !~ /path[[:space:]]*=/ { print }
    ' "$manifest")
    if [ -n "$offenders" ]; then
        echo "ERROR: registry dependency in $manifest:" >&2
        echo "$offenders" | sed 's/^/    /' >&2
        bad=1
    fi
done
# Belt and braces: the three crates this repo explicitly removed must
# never reappear in any manifest.
if grep -nE '^[[:space:]]*(rand|proptest|criterion)[[:space:]]*=' \
        Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: banned registry crate referenced above" >&2
    bad=1
fi
if [ "$bad" -ne 0 ]; then
    exit 1
fi
echo "OK: hermetic (no registry dependencies)"
tier_done "5 hermetic"

echo "==> checking library crates for unwrap() and panic!("
# The sim/analog/core libraries route every failure through the typed
# SimError model, the petri/stg engines through ExploreError and
# StgError, and synthesis through SynthError; elsewhere a broken
# invariant is an `expect` that says which. `.unwrap()` belongs only in
# #[cfg(test)] modules (and experiment binaries under core/src/bin/ and
# crates/bench, which may die loudly). The
# scan stops at the first #[cfg(test)] marker — library code above it
# must be unwrap-free.
bad=0
for src in crates/{sim,analog,core,petri,stg,boolmin,synth,netlist,ctrl,a2a,rt}/src/*.rs; do
    offenders=$(awk -v f="$src" '
        /#\[cfg\(test\)\]/ { exit }
        /\.unwrap\(\)/ { print f ":" FNR ": " $0 }
    ' "$src")
    if [ -n "$offenders" ]; then
        echo "ERROR: unwrap() outside #[cfg(test)] — use a typed error:" >&2
        echo "$offenders" | sed 's/^/    /' >&2
        bad=1
    fi
done
# The analog and core libraries have one public form per fallible
# operation, the one returning SimError: a `panic!(` above the first
# #[cfg(test)] would be a panicking twin coming back.
for src in crates/{analog,core}/src/*.rs; do
    offenders=$(awk -v f="$src" '
        /#\[cfg\(test\)\]/ { exit }
        /panic!\(/ { print f ":" FNR ": " $0 }
    ' "$src")
    if [ -n "$offenders" ]; then
        echo "ERROR: panic!( outside #[cfg(test)] — return a SimError:" >&2
        echo "$offenders" | sed 's/^/    /' >&2
        bad=1
    fi
done
if [ "$bad" -ne 0 ]; then
    exit 1
fi
echo "OK: library crates are unwrap-free, analog and core panic-free (typed errors only)"
tier_done "6 unwrap scan"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check
echo "OK: rustfmt clean"
tier_done "7 fmt"

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "OK: clippy clean"
tier_done "8 clippy"

echo "==> cargo doc --offline --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
echo "OK: rustdoc clean"
tier_done "9 rustdoc"
report_times
