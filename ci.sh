#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
#   ./ci.sh          # everything (fmt + clippy + build + tests)
#   ./ci.sh --quick  # skip the release build, run debug tests only
#
# Mirrors what reviewers run before merging; all steps must pass.
set -euo pipefail
cd "$(dirname "$0")"

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

if cargo clippy --version >/dev/null 2>&1; then
    step "cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint step" >&2
fi

step "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [[ $quick -eq 0 ]]; then
    step "cargo build --release"
    cargo build --release
fi

step "cargo test (tier-1)"
cargo test -q

step "cargo test --workspace"
cargo test --workspace -q

step "cargo test --features failpoints (fault injection suite)"
cargo test --features failpoints -q
cargo test -p parda-core --features failpoints -q
cargo test -p parda-trace --features failpoints -q
cargo test -p parda-server --features failpoints -q

step "cargo bench --no-run (benches must compile)"
cargo bench --workspace --no-run --quiet

step "hotpath perf smoke (4M refs; threads8/seq must hold the committed floors)"
# The run takes its config from the floor file, and the floors hold on
# the core count they were measured on.
cargo build -q --release -p parda-bench --bin hotpath
hotpath_out=$(mktemp)
python3 - target/release/hotpath "$hotpath_out" BENCH_hotpath_floor.json "$(nproc)" <<'EOF'
import json, subprocess, sys
binary, out, gate_path, nproc = sys.argv[1:]
gate = json.load(open(gate_path))
if int(nproc) != gate["host"]["nproc"]:
    print(f"  skipped: the floors were measured on {gate['host']['nproc']} cores,"
          f" this host has {nproc}")
    sys.exit(0)
args = [arg for key, value in gate["config"].items() for arg in (f"--{key}", str(value))]
subprocess.run([binary, *args, "--out", out], stdout=subprocess.DEVNULL, check=True)
report = json.load(open(out))
floors = gate["floors"]
measured = {s["tree"]: s["threads8_over_seq"] for s in report["speedups"]}
failed = False
for tree, floor in floors.items():
    ratio = measured[tree]
    ok = ratio >= floor
    print(f"  {tree}: threads8/seq {ratio:.2f}x (floor {floor:.2f}x)"
          f" {'ok' if ok else 'REGRESSED'}")
    failed |= not ok
sys.exit(1 if failed else 0)
EOF
rm -f "$hotpath_out"

step "approx accuracy smoke (1M refs; MAE must hold the committed ceilings)"
approx_out=$(mktemp)
cargo run -q --release -p parda-bench --bin sampling_accuracy -- \
    --refs 1000000 --out "$approx_out" > /dev/null
python3 - "$approx_out" BENCH_approx_floor.json <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
ceilings = json.load(open(sys.argv[2]))["mae_ceilings"]
failed = False
for row in report["rows"]:
    ceiling = ceilings.get(row["workload"], {}).get(row["mode"])
    if ceiling is None:
        continue
    ok = row["mae"] <= ceiling
    print(f"  {row['workload']}/{row['mode']}: MAE {row['mae']:.4f}"
          f" (ceiling {ceiling}) {'ok' if ok else 'REGRESSED'}")
    failed |= not ok
sys.exit(1 if failed else 0)
EOF
rm -f "$approx_out"

step "server ingest smoke (400k refs; sharded daemon must hold the committed floors)"
server_out=$(mktemp)
cargo run -q --release -p parda-bench --bin server_ingest -- \
    --refs 400000 --runs 1 --out "$server_out" > /dev/null
python3 - "$server_out" BENCH_server_floor.json <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
gate = json.load(open(sys.argv[2]))
rows = {f"{r['mode']}/{r['sessions']}": r for r in report["results"]}
failed = False
for key, floor in gate["floors"].items():
    rps = rows[key]["refs_per_sec"]
    ok = rps >= floor
    print(f"  {key}: {rps} refs/s (floor {floor}) {'ok' if ok else 'REGRESSED'}")
    failed |= not ok
ceiling = gate["sketch_mem_ceiling_bytes"]
mem = rows["loopback-sketch/256"]["mem_per_session_bytes"]
ok = mem <= ceiling
print(f"  loopback-sketch/256: {mem}B/session (ceiling {ceiling}B)"
      f" {'ok' if ok else 'REGRESSED'}")
failed |= not ok
sys.exit(1 if failed else 0)
EOF
rm -f "$server_out"

step "shared-cache smoke (400k refs; concurrent analyzer must stay cachesim-exact and hold the floors)"
shared_out=$(mktemp)
cargo run -q --release -p parda-bench --bin shared_cache -- \
    --refs 400000 --runs 1 --out "$shared_out" > /dev/null
python3 - "$shared_out" BENCH_shared_floor.json <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
gate = json.load(open(sys.argv[2]))
rows = {r["workload"]: r for r in report["results"]}
failed = False
for name, row in rows.items():
    ok = row["cachesim_exact"]
    print(f"  {name}: cachesim_exact={row['cachesim_exact']}"
          f" {'ok' if ok else 'DIVERGED FROM LRU SIMULATION'}")
    failed |= not ok
for key, floor in gate["floors"].items():
    rps = rows[key]["refs_per_sec"]
    ok = rps >= floor
    print(f"  {key}: {rps} refs/s (floor {floor}) {'ok' if ok else 'REGRESSED'}")
    failed |= not ok
sys.exit(1 if failed else 0)
EOF
rm -f "$shared_out"

if [[ $quick -eq 0 ]]; then
    step "approx acceptance (10M-ref zipf, shards-smax:8192 within 2% MAE; release)"
    cargo test --release -q --test approx_accuracy -- --ignored
fi

step "--stats=json smoke (analyze a v2 trace, output must be valid JSON)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cargo run -q -p parda-cli --bin parda -- \
    gen --pattern zipf --footprint 2000 --refs 100000 --out "$smoke_dir/smoke.trc"
cargo run -q -p parda-cli --bin parda -- \
    analyze "$smoke_dir/smoke.trc" --engine parda --ranks 8 --stats=json \
    | python3 -m json.tool > /dev/null
cargo run -q -p parda-cli --bin parda -- \
    analyze "$smoke_dir/smoke.trc" --stream --stats=json \
    | python3 -m json.tool > /dev/null

step "windowed stream smoke (default analyze and --engine parda == sequential splay, byte for byte)"
# 600K refs over 200K addresses: three 4 × 65,536-ref windows, each
# resolving against a history of up to 200K addresses. Both exact paths
# default to the vector tree, so the oracle names the splay tree: a
# different structure from the ones it checks. The `small-windows` run
# cuts the same trace into 49 windows of 3 × 4,096 refs, the last one
# ragged, so many hand-offs pass through the history stage.
cargo run -q -p parda-cli --bin parda -- \
    gen --pattern zipf --footprint 200000 --refs 600000 --seed 5 \
    --out "$smoke_dir/windows.trc"
cargo run -q -p parda-cli --bin parda -- \
    analyze "$smoke_dir/windows.trc" --engine seq --tree splay --json > "$smoke_dir/seq.json"
for engine in default small-windows parda; do
    engine_args=()
    case $engine in
        default) ;;
        small-windows) engine_args=(--chunk 4096 --ranks 3) ;;
        *) engine_args=(--engine "$engine") ;;
    esac
    cargo run -q -p parda-cli --bin parda -- \
        analyze "$smoke_dir/windows.trc" "${engine_args[@]}" --json > "$smoke_dir/$engine.json"
    if ! cmp -s "$smoke_dir/$engine.json" "$smoke_dir/seq.json"; then
        echo "windowed stream smoke: $engine analyze differs from --engine seq --tree splay" >&2
        exit 1
    fi
done

step "bounded windowed smoke (--bound B on the windowed trace: total and every bucket below B match sequential splay)"
# Bounded mode is where tree keys meet the LRU victim. Algorithm 7's
# contract is exactness below the bound and conserved mass, not byte
# identity: a parallel run may resolve a distance at or past B that the
# sequential one counts as infinite.
for bound in 1000 50000; do
    cargo run -q -p parda-cli --bin parda -- \
        analyze "$smoke_dir/windows.trc" --engine seq --tree splay --bound "$bound" --json \
        > "$smoke_dir/bounded-seq.json"
    for engine in default small-windows; do
        engine_args=()
        [ "$engine" = small-windows ] && engine_args=(--chunk 4096 --ranks 3)
        cargo run -q -p parda-cli --bin parda -- \
            analyze "$smoke_dir/windows.trc" "${engine_args[@]}" --bound "$bound" --json \
            > "$smoke_dir/bounded-$engine.json"
        python3 - "$smoke_dir/bounded-$engine.json" "$smoke_dir/bounded-seq.json" "$bound" "$engine" <<'EOF'
import json, sys
got, want = (json.load(open(p)) for p in sys.argv[1:3])
bound, engine = int(sys.argv[3]), sys.argv[4]
pad = lambda c: c[:bound] + [0] * (bound - len(c[:bound]))
bad = [d for d, (g, w) in enumerate(zip(pad(got["counts"]), pad(want["counts"]))) if g != w]
if got["total"] != want["total"] or bad:
    print(f"bounded windowed smoke: {engine} --bound {bound} breaks the contract:"
          f" total {got['total']} vs {want['total']}, buckets differ at {bad[:5]}", file=sys.stderr)
    sys.exit(1)
print(f"  {engine} --bound {bound}: total and buckets below {bound} match")
EOF
    done
done

step "peak-memory smoke (release analyze of the windowed trace must stay under the committed RSS ceiling)"
# Run the release binary itself, not `cargo run`: RUSAGE_CHILDREN would
# count cargo too. The ceiling holds on the core count it was measured on.
cargo build -q --release -p parda-cli
python3 - target/release/parda "$smoke_dir/windows.trc" BENCH_memory_floor.json "$(nproc)" <<'EOF'
import json, resource, subprocess, sys
binary, trace, gate_path, nproc = sys.argv[1:]
gate = json.load(open(gate_path))
if int(nproc) != gate["host"]["nproc"]:
    print(f"  skipped: the ceiling was measured on {gate['host']['nproc']} cores,"
          f" this host has {nproc}")
    sys.exit(0)
subprocess.run([binary, "analyze", trace, "--json"], stdout=subprocess.DEVNULL, check=True)
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
ceiling = gate["ceilings_mib"]["analyze"]
ok = peak_mib <= ceiling
print(f"  analyze windows.trc: peak RSS {peak_mib:.1f} MiB (ceiling {ceiling} MiB)"
      f" {'ok' if ok else 'REGRESSED'}")
sys.exit(0 if ok else 1)
EOF

step "strided smoke (a 4096-strided copy of a trace: same histogram, within 3x the dense time)"
# Relabelling addresses cannot change a distance, and addresses whose low
# bits are all alike must still spread over the last-access table. The
# copy maps each address a to base + a * 4096 in a raw v1 file.
target/release/parda gen --pattern zipf --footprint 262144 --refs 2000000 --seed 9 \
    --format v1 --encoding raw --out "$smoke_dir/dense.trc" > /dev/null
python3 - target/release/parda "$smoke_dir/dense.trc" "$smoke_dir/strided.trc" <<'EOF'
import array, subprocess, sys, time
binary, dense, strided = sys.argv[1:]
data = open(dense, "rb").read()
header, refs = data[:24], array.array("Q")
refs.frombytes(data[24:])
base = 0x5500_0000_0000
with open(strided, "wb") as f:
    f.write(header)
    array.array("Q", (base + (a << 12) for a in refs)).tofile(f)
def analyze(path):
    best, out = None, None
    for _ in range(3):
        t = time.perf_counter()
        out = subprocess.run([binary, "analyze", path, "--json"],
                             stdout=subprocess.PIPE, check=True).stdout
        took = time.perf_counter() - t
        best = took if best is None else min(best, took)
    return best, out
dense_s, dense_out = analyze(dense)
strided_s, strided_out = analyze(strided)
same = dense_out == strided_out
ok = same and strided_s <= 3 * dense_s
print(f"  dense {dense_s:.3f}s, 4096-strided {strided_s:.3f}s"
      f" ({strided_s / dense_s:.2f}x, ceiling 3x), histograms"
      f" {'identical' if same else 'DIFFER'} {'ok' if ok else 'REGRESSED'}")
sys.exit(0 if ok else 1)
EOF

step "corruption smoke (checksums catch a flipped byte; best-effort recovers)"
# Flip one payload byte past the header: the file's middle byte.
flip_middle_byte() {
    python3 - "$1" <<'EOF'
import sys
p = sys.argv[1]
b = bytearray(open(p, "rb").read())
b[len(b) // 2] ^= 0x40
open(p, "wb").write(b)
EOF
}
# A strict reader of a corrupt trace must exit 2.
expect_corrupt() {
    set +e
    cargo run -q -p parda-cli --bin parda -- "$@" > /dev/null 2>&1
    local code=$?
    set -e
    if [[ $code -ne 2 ]]; then
        echo "corruption smoke: \`parda $*\` expected exit 2 (corrupt), got $code" >&2
        exit 1
    fi
}
cargo run -q -p parda-cli --bin parda -- \
    gen --pattern zipf --footprint 2000 --refs 200000 --out "$smoke_dir/dirty.trc"
cargo run -q -p parda-cli --bin parda -- analyze "$smoke_dir/dirty.trc" --verify > /dev/null
flip_middle_byte "$smoke_dir/dirty.trc"
expect_corrupt analyze "$smoke_dir/dirty.trc"
cargo run -q -p parda-cli --bin parda -- \
    analyze "$smoke_dir/dirty.trc" --degradation=best-effort --stats=json \
    | python3 -m json.tool > /dev/null
# The same on a thread-tagged (v2.2) trace, whose frames open with a tag
# block: --verify, analyze and partition's tagged load must all exit 2,
# and best-effort must recover.
cargo run -q -p parda-cli --bin parda -- \
    gen --kernel mt-stencil --size 48 --threads 3 --out "$smoke_dir/dirty-mt.trc"
flip_middle_byte "$smoke_dir/dirty-mt.trc"
expect_corrupt analyze "$smoke_dir/dirty-mt.trc" --verify
expect_corrupt analyze "$smoke_dir/dirty-mt.trc"
expect_corrupt partition "$smoke_dir/dirty-mt.trc" --capacity 2048
cargo run -q -p parda-cli --bin parda -- \
    analyze "$smoke_dir/dirty-mt.trc" --degradation=best-effort > /dev/null

step "server smoke (serve + submit must equal offline analyze, drain on SIGTERM)"
# Run the binary directly: `cargo run` does not forward SIGTERM to its child,
# and the graceful-drain assertion below depends on the daemon receiving it.
cargo build -q -p parda-cli
parda_bin=target/debug/parda
"$parda_bin" gen --pattern zipf --footprint 100000 --refs 1000000 --seed 7 \
    --out "$smoke_dir/server.trc"
"$parda_bin" serve --addr 127.0.0.1:0 --max-sessions 16 > "$smoke_dir/serve.out" &
serve_pid=$!
# Port discovery: the daemon prints its bound address before accepting.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^parda-server listening on //p' "$smoke_dir/serve.out")
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "server smoke: daemon never reported its address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
"$parda_bin" submit "$smoke_dir/server.trc" --addr "$addr" --json \
    > "$smoke_dir/served.json"
"$parda_bin" analyze "$smoke_dir/server.trc" --json > "$smoke_dir/offline.json"
if ! diff -q "$smoke_dir/served.json" "$smoke_dir/offline.json" > /dev/null; then
    echo "server smoke: served histogram differs from offline analyze" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# Windows pushed through one session's streamer as frames arrive: 82
# windows of 3 × 4,096 refs, and the explicit one-window threads engine.
# Both replies must equal the offline analyze too.
for config in chunk=4096,ranks=3 engine=threads; do
    "$parda_bin" submit "$smoke_dir/server.trc" --addr "$addr" --config "$config" --json \
        > "$smoke_dir/served_config.json"
    if ! diff -q "$smoke_dir/served_config.json" "$smoke_dir/offline.json" > /dev/null; then
        echo "server smoke: --config $config histogram differs from offline analyze" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
done
# Approx round-trip: a sampled session must stream to the same sketch the
# offline path builds, so the replies are byte-identical too.
"$parda_bin" submit "$smoke_dir/server.trc" --addr "$addr" --approx=shards:0.01 --json \
    > "$smoke_dir/served_approx.json"
"$parda_bin" analyze "$smoke_dir/server.trc" --approx=shards:0.01 --json \
    > "$smoke_dir/offline_approx.json"
if ! diff -q "$smoke_dir/served_approx.json" "$smoke_dir/offline_approx.json" > /dev/null; then
    echo "server smoke: served approx histogram differs from offline --approx" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
"$parda_bin" submit "$smoke_dir/server.trc" --addr "$addr" --approx=shards:0.01 --stats=json \
    | python3 -c '
import json, sys
doc = json.load(sys.stdin)
approx = doc["stats"]["approx"]
assert approx["mode"] == "shards", approx
assert approx["sketch_bytes"] > 0, approx
'
# Thread-aware shared-cache analysis: a tagged mt-kernel trace must get
# the identical partition recommendation offline and through the daemon's
# tagged-session verb, and --stats=json must carry the SharedMetrics block.
"$parda_bin" gen --kernel mt-stencil --size 48 --threads 3 \
    --out "$smoke_dir/mt.trc"
"$parda_bin" partition "$smoke_dir/mt.trc" --capacity 2048 \
    > "$smoke_dir/part_offline.txt"
"$parda_bin" partition "$smoke_dir/mt.trc" --capacity 2048 --addr "$addr" \
    > "$smoke_dir/part_served.txt"
if ! diff -q "$smoke_dir/part_offline.txt" "$smoke_dir/part_served.txt" > /dev/null; then
    echo "server smoke: served partition recommendation differs from offline" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
"$parda_bin" partition "$smoke_dir/mt.trc" --capacity 2048 --stats=json \
    | python3 -c '
import json, sys
doc = json.load(sys.stdin)
shared = doc["stats"]["shared"]
assert shared["threads"] == 3, shared
assert shared["model"] == "as-recorded", shared
assert sum(shared["allocation"]) <= shared["capacity"] == 2048, shared
assert shared["predicted_misses"] > 0, shared
'
# Sixteen concurrent sessions: the sharded core must round-trip all of
# them at once, each reply byte-identical to the offline analyze.
submit_pids=()
for i in $(seq 1 16); do
    "$parda_bin" submit "$smoke_dir/server.trc" --addr "$addr" --json \
        > "$smoke_dir/served_$i.json" &
    submit_pids+=($!)
done
for pid in "${submit_pids[@]}"; do
    if ! wait "$pid"; then
        echo "server smoke: a concurrent submit failed" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
done
for i in $(seq 1 16); do
    if ! diff -q "$smoke_dir/served_$i.json" "$smoke_dir/offline.json" > /dev/null; then
        echo "server smoke: concurrent session $i differs from offline analyze" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
done
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "server smoke: daemon did not drain cleanly on SIGTERM" >&2
    exit 1
fi
grep -q "sessions opened=22 rejected=0 failed=0 completed=22" "$smoke_dir/serve.out" || {
    echo "server smoke: unexpected final metrics:" >&2
    cat "$smoke_dir/serve.out" >&2
    exit 1
}

step "chaos smoke (injected resets + torn writes; retrying submit equals offline, zero lost sessions)"
# A failpoints build of the CLI lets PARDA_FAILPOINTS inject connection
# resets mid-stream and a torn reply write into the live daemon. The
# retrying client must reconnect, RESUME, and still produce a JSON reply
# byte-identical to the offline analyze of the same 1M-ref trace. The
# trace is 16 DATA frames (64Ki refs each), so the resets land on the
# 6th and 12th frame ingests and the tear on the 5th reply flush.
cargo build -q -p parda-cli --features failpoints
PARDA_FAILPOINTS="server::conn_reset=2*every(6)*error;server::partial_write=1*every(5)*error" \
    "$parda_bin" serve --addr 127.0.0.1:0 --max-sessions 4 \
    --orphan-retention 30 --ack-every 8 > "$smoke_dir/chaos.out" &
chaos_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^parda-server listening on //p' "$smoke_dir/chaos.out")
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "chaos smoke: daemon never reported its address" >&2
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
if ! "$parda_bin" submit "$smoke_dir/server.trc" --addr "$addr" \
    --retries 5 --backoff 20 --json > "$smoke_dir/chaos.json"; then
    echo "chaos smoke: retrying submit failed outright" >&2
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
if ! diff -q "$smoke_dir/chaos.json" "$smoke_dir/offline.json" > /dev/null; then
    echo "chaos smoke: histogram after injected disconnects differs from offline" >&2
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
kill -TERM "$chaos_pid"
if ! wait "$chaos_pid"; then
    echo "chaos smoke: daemon did not drain cleanly on SIGTERM" >&2
    exit 1
fi
python3 - "$smoke_dir/chaos.out" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"sessions opened=(\d+) rejected=(\d+) failed=(\d+) completed=(\d+)", text)
assert m, f"no session summary line:\n{text}"
opened, rejected, failed, completed = map(int, m.groups())
assert failed == 0, f"chaos lost sessions:\n{text}"
assert completed == 1, f"expected exactly one completed session:\n{text}"
r = re.search(r"resume orphaned=(\d+) resumed=(\d+) expired=(\d+) acks_sent=(\d+)", text)
assert r, f"no resume metrics line:\n{text}"
orphaned, resumed, expired, acks = map(int, r.groups())
assert resumed >= 1, f"no session was ever resumed:\n{text}"
assert expired == 0, f"an orphan expired instead of resuming:\n{text}"
assert resumed + expired == orphaned, f"orphan accounting does not reconcile:\n{text}"
assert acks > 0, f"the server never ACKed ingest progress:\n{text}"
print(f"  chaos: orphaned={orphaned} resumed={resumed} expired={expired}"
      f" acks_sent={acks} — histogram bit-identical")
EOF

echo
echo "ci: all checks passed"
