#!/bin/sh
# One campaign worker process killed mid-run costs exactly the job it
# was running: the campaign still finishes every seed, exits 1, and
# reports that one job as failed with the worker's death signal.
#
#   worker_crash.sh path/to/minjie-campaign WORKDIR [SIGNATURE]
#
# SIGNATURE, an extended regular expression, defaults to crash:SIGSEGV.
# Under ASan the runtime catches the signal, reports it and, with the
# abort_on_error=1 that src/common/sanitize.cpp links into every binary,
# dies by abort(), so an ASan build passes crash:SIGABRT instead.
tool="$1"
dir="$2"
want="${3:-crash:SIGSEGV}"
seeds=4000
mkdir -p "$dir"
ulimit -c 0

# Run a campaign and SIGSEGV one of its two workers while it runs.
crash_one_worker() {
    "$tool" --seeds $seeds --jobs 2 --difftest-pct 50 \
        --out "$dir/crash.json" > "$dir/crash.txt" &
    pid=$!
    victim=""
    tries=0
    while [ -z "$victim" ] && [ $tries -lt 500 ]; do
        victim=$(pgrep -P $pid | head -n 1)
        tries=$((tries + 1))
        sleep 0.01
    done
    if [ -z "$victim" ]; then
        echo "FAIL: no worker process of $pid appeared"
        kill $pid 2>/dev/null
        exit 1
    fi
    # Let the worker take its first jobs, then kill it.
    sleep 0.1
    kill -SEGV "$victim"
    wait $pid
    rc=$?
}

# A kill that lands in the microseconds between two of the worker's
# jobs costs no job, and the run passes clean (exit 0); try again then.
for attempt in 1 2 3; do
    crash_one_worker
    [ "$rc" -eq 0 ] || break
done

status=0
fail() {
    echo "FAIL: $1"
    status=1
}
[ "$rc" -eq 1 ] || fail "campaign exited $rc, want 1"
grep -q "^{\"jobs\":$seeds,\"failures\":1," "$dir/crash.json" ||
    fail "want $seeds jobs and exactly one failure"
grep -Eq "\"failing_jobs\":\[\{\"seed\":[0-9]+,\"kind\":\"[a-z-]+\",\"signature\":\"$want\"" \
    "$dir/crash.json" || fail "the failing job's signature is not $want"
[ $status -eq 0 ] && echo "worker crash: PASS (one job lost as $want)"
[ $status -eq 0 ] || head -c 600 "$dir/crash.json"
exit $status
