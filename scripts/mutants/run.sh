#!/usr/bin/env bash
# Mutation corpus: each scripts/mutants/*.patch is a fault a test guards.
# Its first line, `# must fail: <cargo test arguments>`, names that test.
# For every patch this applies it to a fresh worktree of HEAD under
# target/mutants/, builds with `cargo test --release --no-run`, runs only
# the named test, and fails if that test passes (the fault went unseen) or
# if a patch no longer applies or builds (the corpus went stale).
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
root=$PWD
tree=$root/target/mutants/tree
export CARGO_TARGET_DIR=$root/target/mutants/build

cleanup() { git worktree remove --force "$tree" 2>/dev/null || true; }
trap cleanup EXIT

status=0
for patch in scripts/mutants/*.patch; do
  name=$(basename "$patch" .patch)
  header=$(head -n 1 "$patch")
  args=${header#'# must fail: '}
  if [ "$args" = "$header" ]; then
    echo "STALE $name: first line is not '# must fail: <cargo test arguments>'"
    status=1
    continue
  fi
  cleanup
  git worktree add --quiet --detach "$tree" HEAD
  # shellcheck disable=SC2086 # the header is a list of arguments
  if ! git -C "$tree" apply "$root/$patch" ||
     ! (cd "$tree" && cargo test --release --quiet --no-run $args); then
    echo "STALE $name: does not apply to HEAD or does not build"
    status=1
    continue
  fi
  # shellcheck disable=SC2086
  if (cd "$tree" && cargo test --release --quiet $args); then
    echo "SURVIVED $name: cargo test $args passed"
    status=1
  else
    echo "killed $name: cargo test $args failed"
  fi
done
exit $status
