#!/usr/bin/env bash
# Mutation checks: every row of scripts/mutants.tsv plants one known
# fault in the source and names the test that must catch it.
#
# Table columns (tab-separated; `#` lines and blank lines are skipped):
#   1. a file, relative to the repo root;
#   2. an exact source snippet, which must occur exactly once in it;
#   3. its replacement;
#   4. `cargo test` arguments selecting the test target, ending in the
#      test's full name, run with `--exact`, e.g.
#      `--test map_dp_cutoff edit_walks_bit_identical_on_random_graphs`
#      or `-p aig --lib cut::tests::cutdb_version_counters_track_list_changes`.
#
# HEAD is exported with `git archive` into one scratch tree whose
# target directory every row reuses, so a row costs one incremental
# build. Every named test must first pass on the clean export. Then,
# per row, the edit is applied, the test target built, and the named
# test run: it must fail. The file is restored before the next row. A
# row whose snippet no longer occurs exactly once fails, so a refactor
# that moves the code must update its row, and so does a mutant that
# does not build.
#
# Usage: scripts/mutants.sh   (outside tier-1; each row rebuilds the
# crates above the edited one)

set -euo pipefail
cd "$(dirname "$0")/.."

table=scripts/mutants.tsv
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/head" "$work/src"
git archive HEAD | tar -x -C "$work/head"
cp -r "$work/head/." "$work/src"
export CARGO_TARGET_DIR="$work/target"

# The table's rows, one field per line, four lines per row.
mapfile -t fields < <(python3 - "$table" <<'EOF'
import sys
for n, line in enumerate(open(sys.argv[1]), 1):
    line = line.rstrip("\n")
    if not line.strip() or line.startswith("#"):
        continue
    cols = line.split("\t")
    if len(cols) != 4 or not all(cols):
        sys.exit(f"{sys.argv[1]}:{n}: expected 4 non-empty tab-separated fields")
    print("\n".join(cols))
EOF
)
rows=$((${#fields[@]} / 4))

# run_test <cargo test args...> <name>: 0 if the test passes, 1 if it
# fails, 2 if its target does not build.
run_test() {
    local name="${*: -1}"
    local args=("${@:1:$#-1}")
    (cd "$work/src" && cargo test -q --offline "${args[@]}" --no-run) >"$work/build.log" 2>&1 || return 2
    (cd "$work/src" && cargo test -q --offline "${args[@]}" -- --exact "$name") >"$work/test.log" 2>&1 || return 1
}

status=0
echo "== named tests on HEAD =="
declare -A on_head
for ((i = 0; i < rows; i++)); do
    test="${fields[i * 4 + 3]}"
    [[ -n "${on_head[$test]:-}" ]] && continue
    read -ra words <<<"$test"
    if run_test "${words[@]}"; then
        on_head[$test]=pass
        echo "pass  $test"
    else
        on_head[$test]=fail
        echo "FAIL  $test (must pass on HEAD)"
        status=1
    fi
done

echo "== mutants =="
for ((i = 0; i < rows; i++)); do
    file="${fields[i * 4]}"
    snippet="${fields[i * 4 + 1]}"
    replacement="${fields[i * 4 + 2]}"
    test="${fields[i * 4 + 3]}"
    label="$file: \`$snippet\` -> \`$replacement\`"
    if ! python3 - "$work/src/$file" "$snippet" "$replacement" <<'EOF'
import sys
path, old, new = sys.argv[1:]
src = open(path).read()
if src.count(old) != 1:
    sys.exit(f"snippet occurs {src.count(old)} times")
open(path, "w").write(src.replace(old, new))
EOF
    then
        echo "ERROR $label"
        status=1
        continue
    fi
    read -ra words <<<"$test"
    set +e
    run_test "${words[@]}"
    outcome=$?
    set -e
    case $outcome in
        1) echo "ok    $label (fails $test)" ;;
        0) echo "SURVIVED $label ($test passes)"; status=1 ;;
        *) echo "ERROR $label (does not build)"; status=1 ;;
    esac
    # A fresh copy, so the next build sees the file as changed.
    cp "$work/head/$file" "$work/src/$file"
done

if [[ $status -ne 0 ]]; then
    echo "mutants: FAILED" >&2
    exit 1
fi
echo "mutants: OK ($rows rows)"
