#!/usr/bin/env bash
# Builds vdo-perf from the sources of the checkout it is run from, then runs
# it with the given flags. Run it from the root of the checkout:
#
#   bash cmd/vdo-perf/run.sh --workload steady --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the Go command's own configuration and telemetry
# files, temporary files, the binary and the result file all live under
# .bench_build in the checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

# The build does not stamp VCS data (that would make the go command search
# for a repository above the checkout), so the commit comes from git, which
# is kept from looking above the checkout too. Outside a git work tree the
# result file records the commit as unknown.
flags=(-out "$out/vdo-perf-result.json")
export GIT_CEILING_DIRECTORIES=$(dirname "$root") GIT_CONFIG_NOSYSTEM=1 GIT_OPTIONAL_LOCKS=0
if rev=$(git -C "$root" rev-parse --verify -q HEAD 2>/dev/null); then
	git -C "$root" diff --quiet HEAD -- 2>/dev/null || rev="$rev-dirty"
	flags+=(-commit "$rev")
fi

(cd "$src" && go build -buildvcs=false -o "$out/vdo-perf" .)
exec "$out/vdo-perf" "${flags[@]}" "$@"
