#!/bin/sh
# Every malformed minjie-sim run-spec must exit 2 with a message on
# stderr instead of silently running a guessed configuration.
#
#   bad_runspec.sh path/to/minjie-sim
sim="$1"
status=0
while read -r spec; do
    err=$("$sim" $spec 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 2 ] || [ -z "$err" ]; then
        echo "FAIL: minjie-sim $spec exited $rc, stderr: '$err'"
        status=1
    fi
done <<SPECS
--config foo
--engine foo
--workload foo
--no-such-flag
--engine xiangshan --iters
--engine xiangshan --iters ten
--engine xiangshan --max-instrs -1
--engine xiangshan --difftest --lightsss
--engine spike --trace run.mjt
--sample --trace run.mjt
--chrome run.json
SPECS
# The well-formed spec next to them still runs.
"$sim" --engine xiangshan --workload sum --iters 10 >/dev/null || status=1
exit $status
