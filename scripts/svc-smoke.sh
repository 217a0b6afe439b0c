#!/usr/bin/env bash
# Boot and stop an rtas-svc server for a loopback smoke run.
#
#   scripts/svc-smoke.sh up <port> [serve flags...]
#       start `rtas-svc serve --addr 127.0.0.1:<port> [flags]` in the
#       background, wait until the port accepts connections, and record
#       the pid in svc-<port>.pid; fail after 10 s or if the server exits.
#   scripts/svc-smoke.sh down <port>
#       print the server's stats, then stop it and wait for it to exit.
#
# Run from the repository root after a release build. Raise the fd
# limit (`ulimit -n`) in the calling shell before `up` when the run
# needs thousands of connections.
set -euo pipefail

usage() {
    echo "usage: $0 up <port> [serve flags...] | down <port>" >&2
    exit 2
}

[ $# -ge 2 ] || usage
command=$1
port=$2
shift 2
bin=./target/release/rtas-svc
pidfile="svc-$port.pid"

case "$command" in
up)
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
        echo "port $port is already in use" >&2
        exit 1
    fi
    "$bin" serve --addr "127.0.0.1:$port" "$@" &
    pid=$!
    for _ in $(seq 1 50); do
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "rtas-svc exited before listening on port $port" >&2
            exit 1
        fi
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            echo "$pid" >"$pidfile"
            exit 0
        fi
        sleep 0.2
    done
    echo "rtas-svc is not listening on port $port after 10 s" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
    ;;
down)
    [ $# -eq 0 ] || usage
    "$bin" stats --addr "127.0.0.1:$port" || true
    if [ -f "$pidfile" ]; then
        pid=$(cat "$pidfile")
        kill "$pid" 2>/dev/null || true
        # Free the port before a later `up` binds it again.
        for _ in $(seq 1 50); do
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.2
        done
        rm -f "$pidfile"
    fi
    ;;
*)
    usage
    ;;
esac
