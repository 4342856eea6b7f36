#!/bin/sh
# popsmoke.sh
#
# End-to-end smoke of population mode, used by `make pop-smoke` and CI:
#
#   1. prismpop with the jsonl sink must spill a readable one-trace-per-
#      line file with the requested UE count and a telemetry snapshot
#      carrying the population counters.
#   2. The emitted stream must be byte-identical at -workers 1 and 4
#      (the population determinism contract).
#   3. prismeval -only population must run the full streaming pipeline
#      (spill -> incremental scaler fit -> streamed windows -> streamed
#      training) to completion.
set -eu

GO=${GO:-go}
POP=${POP:-48}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo "pop-smoke: prismpop jsonl spill (pop=$POP)" >&2
$GO run ./cmd/prismpop -pop "$POP" -shardsize 16 -duration 20 -sink jsonl \
    -out "$dir/w1.jsonl" -workers 1 -metrics "$dir/metrics.json" >&2

lines=$(wc -l <"$dir/w1.jsonl")
if [ "$lines" -ne "$POP" ]; then
    echo "pop-smoke: FAIL: spilled $lines traces, want $POP" >&2
    exit 1
fi

python3 - "$dir/metrics.json" "$POP" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    snap = json.load(f)
counters = snap.get("counters", {})
want = int(sys.argv[2])
ues = counters.get("pop.ues_built", 0)
spilled = counters.get("sink.spill_traces", 0)
if ues != want or spilled != want:
    sys.exit(f"pop-smoke: counters wrong: pop.ues_built={ues} "
             f"sink.spill_traces={spilled}, want {want}")
print(f"pop-smoke: telemetry ok (ues={ues}, spilled={spilled})")
EOF

echo "pop-smoke: determinism across workers" >&2
$GO run ./cmd/prismpop -pop "$POP" -shardsize 16 -duration 20 -sink jsonl \
    -out "$dir/w4.jsonl" -workers 4 >/dev/null
if ! cmp -s "$dir/w1.jsonl" "$dir/w4.jsonl"; then
    echo "pop-smoke: FAIL: -workers 1 and -workers 4 spills differ" >&2
    exit 1
fi
echo "pop-smoke: spills byte-identical at workers 1 and 4" >&2

echo "pop-smoke: prismeval -only population streaming pipeline" >&2
$GO run ./cmd/prismeval -quick -only population >&2

echo "pop-smoke: ok" >&2
