#!/usr/bin/env sh
# Every BENCH_*.json the ROADMAP cites as an on-file perf gate must actually
# be committed — a gate that silently vanishes (deleted, renamed, or never
# regenerated after a bench change) is a gate nobody runs.
#
# Every committed gate file must also record a passing run: a file whose
# "pass" flag is false documents a claim that does not hold, so the check
# fails until the bench is fixed (and the file regenerated) or the claim
# and its gate are retired.
#
# Usage: tools/check_bench_gates.sh [repo-root]   (defaults to script's repo)
set -eu

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
status=0

refs=$(grep -o 'BENCH_[A-Za-z0-9_]*\.json' "$root/ROADMAP.md" | sort -u | tr '\n' ' ')
if [ -z "$refs" ]; then
    echo "check_bench_gates: ROADMAP.md cites no BENCH_*.json files — nothing to check" >&2
    exit 1
fi

for f in $refs; do
    if [ ! -f "$root/$f" ]; then
        echo "MISSING  $f (cited in ROADMAP.md, not on file)"
        status=1
    fi
done

for path in "$root"/BENCH_*.json; do
    [ -e "$path" ] || continue
    f=$(basename "$path")
    if grep -q '"pass": *false' "$path"; then
        echo "FAIL     $f (committed with \"pass\": false)"
        status=1
    else
        echo "ok       $f"
    fi
    # A committed gate file the ROADMAP does not cite is probably a stale
    # artifact or a missing ROADMAP entry. Advisory only.
    case " $refs " in
        *" $f "*) ;;
        *) echo "UNCITED  $f (on file but not in ROADMAP.md's gate list)" ;;
    esac
done

exit $status
