#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload synthetic-eval --seed 2020 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary) and
# every state directory a run creates stays under .bench_build/ in the
# checkout. Outside a full checkout (no go.mod next to perfbench/) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
# The go command's telemetry counters live under the user config directory.
export XDG_CONFIG_HOME="$out/config"

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

bin="$out/perfbench"
(cd "$root/perfbench" && go build -trimpath -buildvcs=false -ldflags "-X main.commit=$commit" -o "$bin.tmp.$$" .)
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" -state-dir "$out" "$@"
