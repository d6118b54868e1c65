#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; arguments go
# to `main.exe run` (see bench/e2e/README.md). Run from the repository
# root. Build output goes to stderr, so standard output ends with the
# benchmark's JSON result line.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi

# The shared dune cache lives outside the tree; keep the build inside it.
DUNE_CACHE=disabled dune build --root . --display quiet bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe run "$@"
