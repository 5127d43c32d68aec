#!/usr/bin/env bash
# Workspace smoke verification:
#
#   1. `cargo fmt --check` + `cargo clippy -q --workspace
#      --all-targets -- -D warnings` (style/lint gates — tests and
#      benches are linted too, the whole tree stays warning-free) +
#      `cargo doc` with `-D warnings`, so a doc link to a deleted or
#      private item fails;
#   2. release build + full `cargo test -q --workspace` (tier-1);
#   3. the end-to-end benchmark package (`e2ebench/`, a package of
#      its own outside the workspace): release build and its tests,
#      so a workspace API change that breaks its traced evaluators
#      fails here instead of in a benchmark run;
#   4. `cargo bench -p bench` with short samples, writing reports to a
#      scratch dir (`BENCH_JSON_DIR`), so the committed BENCH_*.json
#      at the repo root are left untouched;
#   5. a key diff of every BENCH_*.json: any series present in the
#      committed report but missing from the fresh run fails loudly —
#      silently dropped bench series do not get to ride along;
#   6. the tracked speedup ratios on the fresh run: cut enumeration
#      >= 2x over the naive reference, the incremental engines
#      (analysis, cut database, SA step, STA, ground-truth eval,
#      feature maintenance) >= 5x over their full-recompute
#      counterparts, batched GBT inference >= 2x over the per-row
#      tree walk, the sweep of an already swept graph >= 3x over the
#      rebuild, the accepted fresh-cone append loop >= 2x over the
#      reset-rebuild policy, and work bounds: the DP rows the cutoff
#      recomputed on the append replay and the PO features recomputed
#      on the feature replay must stay well below their fallbacks'
#      recompute sets, the recipe memo must serve part of the
#      primitive applications of the paper-recipe SA chain, and the
#      chain itself part of its whole-graph candidate prices;
#   7. the large-tier scaling-exponent ceilings: per-step DP work on
#      the size sweep (deterministic counters from BENCH_scale.json)
#      must grow <= 3x while the design grows 100x (10k -> 1M).
#
# Usage:
#   scripts/verify.sh            # smoke run (fast, scratch reports)
#   scripts/verify.sh --refresh  # additionally copy the fresh reports
#                                # over the committed ones
#
# BENCH_SAMPLE_MS / BENCH_MAX_SAMPLES are honored if pre-set.

set -euo pipefail
cd "$(dirname "$0")/.."

refresh=0
[[ "${1:-}" == "--refresh" ]] && refresh=1

echo "== fmt check =="
cargo fmt --check

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== build (release) =="
cargo build --release

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== e2ebench (build + tests) =="
cargo build --release --manifest-path e2ebench/Cargo.toml
cargo test --release --manifest-path e2ebench/Cargo.toml

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

echo "== benches (short samples -> $scratch) =="
BENCH_JSON_DIR="$scratch" \
BENCH_SAMPLE_MS="${BENCH_SAMPLE_MS:-5}" \
BENCH_MAX_SAMPLES="${BENCH_MAX_SAMPLES:-3}" \
    cargo bench -p bench

keys() { # keys <report.json>  ->  sorted "group/name" lines
    python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for b in sorted(f"{b['group']}/{b['name']}" for b in doc["benchmarks"]):
    print(b)
EOF
}

echo "== bench series key diff =="
status=0
shopt -s nullglob
fresh_reports=("$scratch"/BENCH_*.json)
if [[ ${#fresh_reports[@]} -eq 0 ]]; then
    echo "FAIL: bench run produced no BENCH_*.json reports" >&2
    exit 1
fi
for fresh in "${fresh_reports[@]}"; do
    name="$(basename "$fresh")"
    committed="./$name"
    if [[ ! -f "$committed" ]]; then
        echo "NOTE: $name is new (no committed reference)"
        continue
    fi
    missing="$(comm -23 <(keys "$committed") <(keys "$fresh") || true)"
    added="$(comm -13 <(keys "$committed") <(keys "$fresh") || true)"
    if [[ -n "$missing" ]]; then
        echo "FAIL: $name lost bench series:" >&2
        echo "$missing" | sed 's/^/    - /' >&2
        status=1
    fi
    [[ -n "$added" ]] && echo "$name gained series:" && echo "$added" | sed 's/^/    + /'
    [[ -z "$missing" ]] && echo "OK: $name (all committed series present)"
done
for committed in ./BENCH_*.json; do
    name="$(basename "$committed")"
    if [[ ! -f "$scratch/$name" ]]; then
        echo "FAIL: committed report $name was not regenerated by the bench run" >&2
        status=1
    fi
done
if [[ $status -ne 0 ]]; then
    exit $status
fi

echo "== tracked bench ratios =="
python3 - "$scratch" <<'EOF'
import json, sys, os

scratch = sys.argv[1]

def medians(name):
    doc = json.load(open(os.path.join(scratch, name)))
    return {f"{b['group']}/{b['name']}": b["median_ns"] for b in doc["benchmarks"]}

comp = medians("BENCH_components.json")
fig2 = medians("BENCH_fig2.json")
scale = medians("BENCH_scale.json")

# (slow series, fast series, minimum ratio)
gates = [
    (comp, "components/cut_enum_naive_ref_k4_ex28", "components/cut_enum_k4_ex28", 2.0),
    (comp, "components/cut_enum_naive_ref_k6_ex28", "components/cut_enum_k6_ex28", 2.0),
    (comp, "components/analysis_full_recompute_ex28", "components/analysis_incr_output_edit_ex28", 5.0),
    (comp, "components/analysis_full_recompute_ex28", "components/analysis_incr_substitute_ex28", 5.0),
    (comp, "components/cut_enum_full_ex28", "components/cutdb_invalidate_substitute_ex28", 5.0),
    (comp, "components/sta_full_ex28", "components/sta_incr_edit_ex28", 5.0),
    (comp, "components/map_dp_watermark_ex28", "components/map_dp_cutoff_ex28", 2.0),
    (comp, "components/feat_full_ex28", "components/feat_incr_edit_ex28", 5.0),
    (comp, "components/gbt_scalar_predict", "components/gbt_batch_predict", 2.0),
    # `Aig::sweep` returns a clone of a graph already in swept form: a
    # form check that always fell back to the rebuild reads about 1x
    # (measured 8.8x).
    (comp, "components/sweep_rebuild_ex28", "components/sweep_swept_ex28", 3.0),
    # Work-bound: across the fixed 64-step incremental feature replay,
    # most per-sync PO evaluations must be served from the cache, not
    # recomputed (measured 6.8x; deterministic counters, immune to
    # machine noise).
    (comp, "components/feat_incr_pos_total", "components/feat_incr_pos_recomputed", 1.5),
    # Work-bound: on the paper-recipe ground-truth chain the recipe
    # memo must serve a share of the primitive applications the
    # whole-graph moves request (measured ~2.6x; deterministic
    # counters).
    (comp, "components/sa_paper_prims_requested_ex28", "components/sa_paper_prims_computed_ex28", 1.25),
    # Work-bound: on the same chain the run (its SaResult counters)
    # must serve the prices of candidates equal to the current graph
    # or to one already priced on it (measured ~3.1x; deterministic
    # counters).
    (comp, "components/sa_paper_prices_requested_ex28", "components/sa_paper_prices_computed_ex28", 2.0),
    (fig2, "fig2_iteration/sa_step_rebuild_ex28", "fig2_iteration/sa_step_inplace_ex28", 5.0),
    (fig2, "fig2_iteration/sa_step_rebuild_balance_ex28", "fig2_iteration/sa_step_inplace_balance_ex28", 5.0),
    (fig2, "fig2_iteration/sa_step_rebuild_resub_ex28", "fig2_iteration/sa_step_inplace_resub_ex28", 5.0),
    (fig2, "fig2_iteration/gt_eval_rebuild_ex28", "fig2_iteration/gt_eval_inplace_ex28", 5.0),
    (fig2, "fig2_iteration/sa_step_rebuild_refactor_ex28", "fig2_iteration/sa_step_inplace_refactor_ex28", 5.0),
    (fig2, "fig2_iteration/map_dp_reset_rebuild_append_ex28", "fig2_iteration/map_dp_cutoff_append_ex28", 2.0),
    # Work-bound (deterministic counters, immune to machine noise): on
    # the fixed 64-move accepted-append walk the per-row DP cutoff must
    # recompute strictly fewer rows than the forward-clamped watermark
    # fallback would touch (measured 3.0x tighter).
    (fig2, "fig2_iteration/map_dp_append_rows_above_watermark", "fig2_iteration/map_dp_append_recomputed_rows", 1.5),
]

failed = False
for doc, slow, fast, floor in gates:
    ratio = doc[slow] / doc[fast]
    ok = ratio >= floor
    print(f"{'OK  ' if ok else 'FAIL'} {fast.split('/')[1]}: {ratio:.1f}x vs {slow.split('/')[1]} (floor {floor}x)")
    failed |= not ok

# Scaling-exponent gates over the large-tier sweep. These are
# *ceilings* over deterministic work counters (DP rows recomputed per
# accepted SA step, fixed LCG walk — machine-noise-immune): per-step
# incremental cost must stay within a constant factor while the design
# grows 10x and 100x. The node-count floor proves the sweep actually
# spanned the two orders of magnitude it claims.
ceilings = [
    ("scale_sweep/map_incr_rows_per_step_100k", "scale_sweep/map_incr_rows_per_step_10k", 3.0),
    ("scale_sweep/map_incr_rows_per_step_1m", "scale_sweep/map_incr_rows_per_step_10k", 3.0),
]
for big, small, cap in ceilings:
    ratio = scale[big] / scale[small]
    ok = ratio <= cap
    print(f"{'OK  ' if ok else 'FAIL'} {big.split('/')[1]}: {ratio:.2f}x rows/step vs {small.split('/')[1]} (ceiling {cap}x)")
    failed |= not ok
growth = scale["scale_sweep/sweep_nodes_1m"] / scale["scale_sweep/sweep_nodes_10k"]
ok = growth >= 50.0
print(f"{'OK  ' if ok else 'FAIL'} sweep_nodes_1m: {growth:.0f}x nodes vs sweep_nodes_10k (floor 50x)")
failed |= not ok
sys.exit(1 if failed else 0)
EOF

if [[ $refresh -eq 1 ]]; then
    echo "== refreshing committed reports =="
    cp -v "$scratch"/BENCH_*.json .
fi

echo "verify: OK"
