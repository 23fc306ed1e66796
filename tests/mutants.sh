#!/usr/bin/env bash
# Mutant gate: every bug this repository fixed stays fixed.
#
# Each `[[mutant]]` entry of tests/mutants.toml restores one fixed bug as a
# one-line edit: `file`, its `line` number, the line's text `from` (leading
# and trailing blanks trimmed) and the text `to` that replaces it (the
# line's indentation is kept), plus the `suites` that must each fail with
# the bug back in: a root-package test target by name, or a member crate's
# as `<crate>:<target>` (run as `-p <crate> --test <target>`; `<crate>:lib`
# runs the crate's unit tests, `-p <crate> --lib`), and optionally the
# `filter` naming the test or property of those suites that kills it
# (passed to `cargo test` as its test-name filter). The runner extracts a
# detached copy of a revision (HEAD by default) under target/mutants,
# applies one entry at a time, builds the named suites, runs them, restores
# the file, and exits non-zero when any mutant survives, does not build, or
# names a line that no longer reads `from`.
#
#   bash tests/mutants.sh          # or `make mutants`
#
# Environment: MUTANTS_REV (revision to mutate, default HEAD),
# MUTANTS_TOML (entry file, default tests/mutants.toml of the working tree),
# MUTANTS_SUITES (run these suites for every entry instead of its own, to
# print which of them kill it; an entry's filter still applies). A suite
# run still going after 600 s (a mutant that hangs) counts as failing, and
# is marked so. Property tests do not shrink a failing case here
# (`PROPTEST_MAX_SHRINK_ITERS=0`): the gate asks only whether a suite
# fails, so the time a minimal case would take is saved.
#
# The TOML is a flat subset: `[[mutant]]` headers, `key = value` lines with
# values in '…' or '''…''' (literal, no escapes), "…" (no escapes), plain
# integers, or ["a", "b"] string arrays; `#` comment lines.
set -u

root=$(git rev-parse --show-toplevel)
rev=${MUTANTS_REV:-HEAD}
toml=${MUTANTS_TOML:-$root/tests/mutants.toml}
work=$root/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
export PROPTEST_MAX_SHRINK_ITERS=0

rm -rf "$tree"
mkdir -p "$tree"
git -C "$root" archive "$rev" | tar -x -C "$tree" || exit 2

# One record per entry, fields separated by the unit separator (\037):
# file, line, from, to, suites (space separated), filter (may be empty).
entries=$(awk '
    function value(v) {
        sub(/^[ \t]+/, "", v); sub(/[ \t]+$/, "", v)
        if (v ~ /^\x27\x27\x27/) return substr(v, 4, length(v) - 6)
        if (v ~ /^[\x27"]/) return substr(v, 2, length(v) - 2)
        if (v ~ /^\[/) { gsub(/[][\x27",]/, " ", v); gsub(/  +/, " ", v); sub(/^ /, "", v); sub(/ $/, "", v) }
        return v
    }
    function flush() {
        if (n) printf "%s\037%s\037%s\037%s\037%s\037%s\n", e["file"], e["line"], e["from"], e["to"], e["suites"], e["filter"]
        delete e
    }
    /^[ \t]*(#|$)/ { next }
    /^\[\[mutant\]\]/ { flush(); n++; next }
    {
        eq = index($0, "=")
        key = substr($0, 1, eq - 1); gsub(/[ \t]/, "", key)
        e[key] = value(substr($0, eq + 1))
    }
    END { flush() }
' "$toml")

# The cargo arguments selecting suite `$1`: `<crate>:lib`,
# `<crate>:<target>` or a root target.
target() {
    case $1 in
        *:lib) printf -- '-p %s --lib' "${1%%:*}" ;;
        *:*) printf -- '-p %s --test %s' "${1%%:*}" "${1#*:}" ;;
        *) printf -- '--test %s' "$1" ;;
    esac
}

start=$(date +%s)
total=0
bad=0
while IFS=$'\037' read -r file line from to suites filter; do
    total=$((total + 1))
    [ -n "${MUTANTS_SUITES:-}" ] && suites=$MUTANTS_SUITES
    label="$file:$line${filter:+ ($filter)}"
    cp "$tree/$file" "$work/original"
    if ! FROM=$from TO=$to awk -v n="$line" '
        NR == n {
            indent = $0; sub(/[^ \t].*$/, "", indent)
            body = $0; sub(/^[ \t]+/, "", body); sub(/[ \t]+$/, "", body)
            if (body != ENVIRON["FROM"]) exit 3
            print indent ENVIRON["TO"]; next
        }
        { print }
    ' "$work/original" >"$tree/$file"; then
        cp "$work/original" "$tree/$file"
        printf 'STALE     %s: the line does not read `%s`\n' "$label" "$from"
        bad=$((bad + 1))
        continue
    fi
    built=yes
    for s in $suites; do
        (cd "$tree" && cargo test --offline -q --no-run $(target "$s")) >"$work/build.log" 2>&1 || built=no
        [ $built = yes ] || break
    done
    if [ $built = no ]; then
        cp "$work/original" "$tree/$file"
        printf 'NO BUILD  %s (see %s)\n' "$label" "$work/build.log"
        bad=$((bad + 1))
        continue
    fi
    verdict=killed
    results=
    for s in $suites; do
        (cd "$tree" && timeout 600 cargo test --offline -q $(target "$s") ${filter:+"$filter"}) >/dev/null 2>&1
        case $? in
            0) results="$results $s=passed"; verdict=SURVIVED ;;
            124) results="$results $s=failed(timeout)" ;;
            *) results="$results $s=failed" ;;
        esac
    done
    cp "$work/original" "$tree/$file"
    [ "$verdict" = killed ] || bad=$((bad + 1))
    printf '%-9s %s:%s\n' "$verdict" "$label" "$results"
done <<<"$entries"

printf '%d mutants, %d not killed, %ds\n' "$total" "$bad" $(($(date +%s) - start))
[ "$bad" -eq 0 ]
