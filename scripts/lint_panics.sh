#!/usr/bin/env bash
# Panic-budget lint (ROADMAP 4(e)).
#
# Library code fails with typed errors; a panic is for a broken internal
# condition only. This lint counts the panic sites — `unwrap(`, `expect(`,
# `panic!(`, `unreachable!(`, `unimplemented!(` — in the non-test part of
# every crate (each crates/*/src/**/*.rs up to its first `#[cfg(test)]`),
# prints the per-crate table, and fails when a crate exceeds the ceiling
# committed in scripts/panic_budget.txt.
#
# A ratchet, not a knob: when a count drops, lower its ceiling in the same
# change (one line); raising a ceiling needs a justification in the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=scripts/panic_budget.txt
PATTERN='unwrap\(|expect\(|panic!\(|unreachable!\(|unimplemented!\('

fail=0
printf '%-12s %6s %8s\n' crate sites ceiling
for dir in crates/*/; do
  crate=$(basename "$dir")
  sites=0
  while IFS= read -r file; do
    n=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' "$file" | { grep -oE "$PATTERN" || true; } | wc -l)
    sites=$((sites + n))
  done < <(find "$dir/src" -name '*.rs' | sort)
  ceiling=$(awk -v c="$crate" '$1 == c { print $2 }' "$BUDGET")
  printf '%-12s %6d %8s\n' "$crate" "$sites" "${ceiling:-none}"
  if [[ -z "$ceiling" ]]; then
    echo "panic lint: crate '$crate' has no ceiling in $BUDGET" >&2
    fail=1
  elif ((sites > ceiling)); then
    echo "panic lint: crate '$crate' has $sites panic sites, ceiling $ceiling:" >&2
    echo "  return a typed error, or raise the ceiling in $BUDGET with a" >&2
    echo "  justification in the diff" >&2
    fail=1
  fi
done

if [[ "$fail" != 0 ]]; then
  exit 1
fi
echo "panic lint: within budget"
