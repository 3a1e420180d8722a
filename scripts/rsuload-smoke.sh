#!/usr/bin/env bash
# rsuload-smoke: end-to-end smoke of the benchmark (`make rsuload-smoke`,
# CI job rsuload-test). Runs every workload BENCHMARK.json declares for
# 2 s untraced, plus one traced restore-batch run, each through
# cmd/rsuload/run.sh exactly as the benchmark does, and fails unless
# each run's last stdout line is its JSON summary with "correct": true
# and "failed": 0. A signature change the root module's tests cannot
# see (cmd/rsuload is a module of its own) or an error before the
# summary is printed fails here.
#
# Run from the repository root. Requires: jq.
set -euo pipefail

out=$(mktemp)
trap 'rm -f "$out"' EXIT

check() {
    echo "rsuload-smoke: $*" >&2
    bash cmd/rsuload/run.sh "$@" --seconds 2 >"$out"
    last=$(tail -n 1 "$out")
    if ! jq -e '.correct == true and .failed == 0' <<<"$last" >/dev/null; then
        echo "rsuload-smoke: $*: last stdout line is not a passing JSON summary:" >&2
        echo "$last" >&2
        exit 1
    fi
}

for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
    check --workload "$w" --trace 0
done
check --workload restore-batch --trace 1
echo "rsuload-smoke: OK" >&2
