#!/usr/bin/env bash
# Every commit builds: runs `dune build @all` on each commit of
# BASE..HEAD, oldest first, each in a clean export of its tree, so that
# `git bisect` never has to skip one. Prints one line per commit and
# the tail of the build log of each that fails; exits 1 if any fails,
# 0 otherwise.
#
# Usage: tools/build_each_commit.sh BASE    (e.g. origin/main)
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:?usage: tools/build_each_commit.sh BASE}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failed=0
for c in $(git rev-list --reverse "$base..HEAD"); do
  line=$(git log -1 --format='%h %s' "$c")
  mkdir "$work/tree"
  git archive "$c" | tar -x -C "$work/tree"
  if dune build --root "$work/tree" @all >"$work/log" 2>&1; then
    echo "builds:        $line"
  else
    echo "does not build: $line"
    tail -n 20 "$work/log"
    failed=1
  fi
  rm -rf "$work/tree"
done
exit $failed
