#!/usr/bin/env bash
# Concurrent serving smoke test: ONE pi_server with a serving pool, K
# parallel WEIGHTLESS pi_client processes. Requires that
#   (a) every one of the K clients completes and prints a prediction
#       (sessions really are served concurrently: pool of K workers,
#       K clients launched at once);
#   (b) the server drains cleanly, reports exactly K served sessions
#       with zero rejections/failures, and exits 0.
# Run by CI and registered as the `smoke_concurrent` ctest; also
# runnable by hand:
#
#   scripts/smoke_concurrent.sh [path/to/build/examples] [K]
#
# Uses an ephemeral port (the server's "listening on" line reports it),
# so parallel runs cannot collide.
set -euo pipefail

bin_dir=${1:-build/examples}
clients=${2:-4}
server_bin=$bin_dir/pi_server
client_bin=$bin_dir/pi_client
[[ -x $server_bin && -x $client_bin ]] || {
    echo "smoke_concurrent: missing $server_bin or $client_bin (build first)" >&2
    exit 1
}

workdir=$(mktemp -d)
server_log=$workdir/server.log
server_pid=
cleanup() {
    [[ -n $server_pid ]] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

"$server_bin" --port 0 --clients "$clients" --pool "$clients" --queue "$clients" \
    >"$server_log" 2>&1 &
server_pid=$!

port=
for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$server_log")
    [[ -n $port ]] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$server_log" >&2; exit 1; }
    sleep 0.1
done
[[ -n $port ]] || { echo "smoke_concurrent: server never reported its port" >&2; cat "$server_log" >&2; exit 1; }

# K weightless clients, all in flight at once, each with its own input.
pids=()
for i in $(seq 1 "$clients"); do
    "$client_bin" --port "$port" --input-seed $((100 + i)) \
        >"$workdir/client_$i.log" 2>&1 &
    pids+=($!)
done

failed=0
for i in $(seq 1 "$clients"); do
    rc=0
    wait "${pids[$((i - 1))]}" || rc=$?
    if [[ $rc -ne 0 ]]; then
        echo "smoke_concurrent: client $i failed (rc=$rc)" >&2
        failed=1
    fi
done

server_rc=0
wait "$server_pid" || server_rc=$?
server_pid=

echo "--- pi_server ---"
cat "$server_log"
for i in $(seq 1 "$clients"); do
    echo "--- pi_client $i ---"
    cat "$workdir/client_$i.log"
done

[[ $failed -eq 0 ]] || exit 1
[[ $server_rc -eq 0 ]] || { echo "smoke_concurrent: server failed (rc=$server_rc)" >&2; exit 1; }
for i in $(seq 1 "$clients"); do
    grep -q "predicted class:" "$workdir/client_$i.log" || {
        echo "smoke_concurrent: no prediction from client $i" >&2
        exit 1
    }
done
grep -q "served $clients sessions (0 rejected, 0 failed)" "$server_log" || {
    echo "smoke_concurrent: server did not report $clients clean sessions" >&2
    exit 1
}
echo "smoke_concurrent: OK ($clients parallel weightless clients, port $port)"
