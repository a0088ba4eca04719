#!/usr/bin/env bash
# Builds hexserver and hexperf from this checkout and runs hexperf
# with the given arguments, e.g.
#
#   bash hexperf/run.sh --workload lubm_hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write lands in .bench_build/ at the
# root of the checkout, or in $CARGO_TARGET_DIR when it is set.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
# Telemetry off: otherwise the go command forks a detached sidecar
# process (setsid, so outside this script's process group) that can
# outlive this script.
mkdir -p "$out/config/go/telemetry"
printf 'off' > "$out/config/go/telemetry/mode"
go build -o "$out/hexserver" ./cmd/hexserver >&2
(cd hexperf && go build -o "$out/hexperf" .) >&2
exec "$out/hexperf" -out "$out" -server "$out/hexserver" "$@"
