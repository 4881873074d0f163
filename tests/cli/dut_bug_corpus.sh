#!/bin/sh
# A bug injected into the DiffTest DUT is caught, bucketed, shrunk and
# written to the corpus as a DiffTest job: the campaign exits 1 with
# one `rd:...:xor` bucket of at most 8 body instructions, and its one
# `.mjc` file has a `job difftest` line.
#
#   dut_bug_corpus.sh path/to/minjie-campaign WORKDIR
tool="$1"
dir="$2"
rm -rf "$dir"
mkdir -p "$dir"

"$tool" --seeds 100 --jobs 2 --difftest-pct 100 --inject-bug xor \
    --corpus-dir "$dir/corpus" --out "$dir/bug.json" > "$dir/bug.txt"
rc=$?

status=0
fail() {
    echo "FAIL: $1"
    status=1
}
[ "$rc" -eq 1 ] || fail "campaign exited $rc, want 1"
buckets=$(grep -o '"buckets":\[.*\],"workers"' "$dir/bug.json")
[ "$(echo "$buckets" | grep -o '"signature":' | wc -l)" -eq 1 ] ||
    fail "want exactly one bucket"
echo "$buckets" | grep -Eq '^"buckets":\[\{"signature":"rd:[a-z]+:xor[:"]' ||
    fail "the bucket is not a DiffTest rd divergence of xor"
echo "$buckets" | grep -Eq '"shrunk_insts":[1-8],' ||
    fail "the bucket was not shrunk to 1-8 instructions"
set -- "$dir"/corpus/*.mjc
[ $# -eq 1 ] && [ -f "$1" ] || fail "want exactly one .mjc file"
grep -qx "job difftest" "$1" || fail "the .mjc file is not a DiffTest job"
[ $status -eq 0 ] && echo "DUT bug corpus: PASS ($(basename "$1"))"
[ $status -eq 0 ] || cat "$dir/bug.txt"
exit $status
