#!/bin/sh
# `minjie-sim --trace` writes a .mjt artifact that `minjie-trace report`
# reads back: the xiangshan run (under DiffTest) must render an exact
# top-down CPI stack and the Figure 15 summary, the NEMU run its
# counters and block trace.
#
#   trace_roundtrip.sh path/to/minjie-sim path/to/minjie-trace WORKDIR
sim="$1"
trace="$2"
dir="$3"
set -e
mkdir -p "$dir"
need() {
    grep -Eq "$1" "$2" || { echo "FAIL: $2 lacks '$1'"; exit 1; }
}

"$sim" --engine xiangshan --workload coremark --iters 20 --difftest \
    --trace "$dir/xs.mjt" --chrome "$dir/xs.json"
"$trace" report "$dir/xs.mjt" > "$dir/xs.txt"
need "^run: coremark@nh" "$dir/xs.txt"
need "\(exact\)" "$dir/xs.txt"
need "^  >2 ready: [0-9.]+% of RS-cycles" "$dir/xs.txt"
need '"traceEvents"' "$dir/xs.json"

"$sim" --engine nemu --workload sum --iters 100 --trace "$dir/nemu.mjt"
"$trace" report "$dir/nemu.mjt" > "$dir/nemu.txt"
need "^run: sum@nemu" "$dir/nemu.txt"
need "^  instrs +[1-9]" "$dir/nemu.txt"
need "^trace: [1-9][0-9]* events" "$dir/nemu.txt"
echo "trace round trip: PASS"
