#!/bin/sh
# The mutation ledger's runner: apply each mutant under mutants/ to a
# fresh worktree of HEAD and run the debug workspace suite against it.
#
#   .github/mutants.sh                 # every mutants/*.patch
#   .github/mutants.sh mutants/048-*   # just these
#
# Prints one markdown row per mutant (mutant | applies | killed by |
# seconds) and the kill rate; mutants/LEDGER.md records the runs.
#   - A patch that does not `git apply --check` is "stale", never killed.
#   - "killed by" names the first failing test binary and test, as cargo
#     reports them; a suite that outlives the timeout counts as killed by
#     "timeout", a mutant that does not compile as "unviable" (neither
#     killed nor surviving).
#   - The unmutated suite runs first and must pass, or nothing is judged.
# Only committed code is judged: commit before running.
set -eu

timeout_s=900
repo=$(git rev-parse --show-toplevel)
cd "$repo"
if [ $# -eq 0 ]; then
  set -- mutants/*.patch
fi

work=$(mktemp -d)
tree="$work/tree"
cleanup() {
  git -C "$repo" worktree remove --force "$tree" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT INT TERM
git worktree add --quiet --detach "$tree" HEAD

# Runs the suite in the worktree; sets `verdict` and `secs`.
judge() {
  start=$(date +%s)
  if ! (cd "$tree" && cargo test --workspace --no-run) >"$work/build.log" 2>&1; then
    verdict=unviable
  elif (cd "$tree" && timeout "$timeout_s" cargo test --workspace) >"$work/test.log" 2>&1; then
    verdict=survived
  elif [ $? -eq 124 ]; then
    verdict=timeout
  else
    binary=$(sed -n 's/^error: .* failed, to rerun pass `\(.*\)`$/\1/p' "$work/test.log" | head -n 1)
    test=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$work/test.log" | head -n 1)
    verdict="\`$binary\` \`${test:-(no test named)}\`"
  fi
  secs=$(($(date +%s) - start))
}

echo "baseline: $(git rev-parse --short HEAD)" >&2
judge
if [ "$verdict" != survived ]; then
  echo "the unmutated suite does not pass ($verdict):" >&2
  tail -n 30 "$work/build.log" "$work/test.log" >&2 2>/dev/null || true
  exit 1
fi
echo "baseline passes in ${secs} s" >&2

echo "| mutant | applies | killed by | seconds |"
echo "|---|---|---|---|"
killed=0
judged=0
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  if ! git -C "$tree" apply --check "$repo/$patch" 2>/dev/null; then
    echo "| $name | stale | — | — |"
    continue
  fi
  git -C "$tree" apply "$repo/$patch"
  judge
  git -C "$tree" checkout --quiet -- .
  case $verdict in
    unviable) ;;
    survived) judged=$((judged + 1)) ;;
    *) judged=$((judged + 1)); killed=$((killed + 1)) ;;
  esac
  echo "| $name | yes | $verdict | $secs |"
done
echo
echo "kill rate: $killed / $judged"
