#!/usr/bin/env bash
# Builds the benchmark from the checkout that contains this script and
# runs it. Everything the build and the run write stays under
# .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload <interactive|scale-100x|host-churn|all> \
#       --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/go-tmp" "$out/config"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export GOTMPDIR="$out/go-tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

# The ceiling stops git from looking above the checkout for a repository.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" -commit "$commit" "$@"
