#!/bin/sh
# Every malformed run-spec of a tool must exit 2 with a message on
# stderr instead of silently running a guessed configuration.
#
#   bad_runspec.sh path/to/minjie-sim
#   bad_runspec.sh path/to/minjie-campaign
#   FAST=1 bad_runspec.sh path/to/fig12_spec_scores
tool="$1"
case "$(basename "$tool")" in
minjie-sim)
    base=""
    good="--engine xiangshan --workload sum --iters 10"
    bad="--config foo
--engine foo
--workload foo
--no-such-flag
--engine xiangshan --iters
--engine xiangshan --iters ten
--engine xiangshan --max-instrs -1
--engine xiangshan --difftest --lightsss
--engine spike --trace run.mjt
--sample --trace run.mjt
--chrome run.json" ;;
minjie-campaign)
    # A tiny report-to-stdout run, so a spec that is wrongly accepted
    # finishes fast and writes no file.
    base="--out - --seeds 2 --jobs 1"
    good=""
    bad="--jobs abc
--jobs
--jobs 0
--seeds 10x
--seeds 99999999999999999999
--seed-base -1
--insts ten
--fp-pct 0x
--difftest-pct 4294967296
--difftest-pct 150
--fp-pct 400
--rvc-pct 101
--pairs spike-qemu
--inject-bug nosuchop
--inject-bug xor:zz
--no-such-flag" ;;
fig12_spec_scores)
    base=""
    good="--sample 2"
    bad="--sample abc
--sample
--sample 0
--sample 2x
--no-such-flag" ;;
*)
    echo "bad_runspec.sh: unknown tool $tool"
    exit 1 ;;
esac
status=0
while read -r spec; do
    err=$("$tool" $base $spec 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 2 ] || [ -z "$err" ]; then
        echo "FAIL: $(basename "$tool") $spec exited $rc, stderr: '$err'"
        status=1
    fi
done <<SPECS
$bad
SPECS
# The well-formed spec next to them still runs.
"$tool" $base $good >/dev/null || status=1
exit $status
