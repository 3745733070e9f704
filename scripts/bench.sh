#!/usr/bin/env sh
# Runs the full benchmark suite with allocation stats and records a
# plain-text summary as BENCH_<date>.txt (benchstat input) plus one
# normalized entry in the cumulative BENCH_TRAJECTORY.json. The raw
# `go test -json` event stream is no longer written: it was multi-MB
# per run and carried nothing the .txt + trajectory don't (old
# BENCH_<date>.json artifacts are gitignored).
#
# Usage: scripts/bench.sh [extra go test args...]
set -eu

cd "$(dirname "$0")/.."
date="$(date +%Y%m%d)"
txt="BENCH_${date}.txt"

go test -run '^$' -bench . -benchmem "$@" ./... | tee "$txt"

echo "wrote $txt" >&2

# Cumulative trajectory: every run appends one normalized entry to
# BENCH_TRAJECTORY.json (a JSON array, one object per run with ns/op,
# B/op and allocs/op per benchmark, CPU-count suffix stripped), so
# performance history survives beyond the two most recent runs.
traj="BENCH_TRAJECTORY.json"
stamp="$(date +%Y-%m-%dT%H:%M:%S)"
# Hardware stamp: a number means nothing without the machine it was
# taken on. GOMAXPROCS is the -N suffix go test prints on every line.
nproc="$(nproc 2>/dev/null || echo 0)"
gover="$(go env GOVERSION)"
cpu="$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null | tr -d '"\\')"
entry="$(awk -v date="$date" -v stamp="$stamp" -v nproc="$nproc" -v gover="$gover" -v cpu="${cpu:-unknown}" '
	/^Benchmark/ {
		name = $1
		if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
		sub(/-[0-9]+$/, "", name)
		ns = ""; by = ""; al = ""; rss = ""; bpn = ""
		for (i = 2; i <= NF; i++) {
			if ($i == "ns/op") ns = $(i - 1)
			if ($i == "B/op") by = $(i - 1)
			if ($i == "allocs/op") al = $(i - 1)
			if ($i == "peak_rss_bytes") rss = $(i - 1)
			if ($i == "bytes_per_node") bpn = $(i - 1)
		}
		if (ns == "") next
		b = sprintf("\"%s\":{\"ns_op\":%s", name, ns)
		if (by != "") b = b ",\"bytes_op\":" by
		if (al != "") b = b ",\"allocs_op\":" al
		if (rss != "") b = b ",\"peak_rss_bytes\":" rss
		if (bpn != "") b = b ",\"bytes_per_node\":" bpn
		b = b "}"
		benches = benches (benches == "" ? "" : ",") b
	}
	END {
		printf "{\"date\":\"%s\",\"stamp\":\"%s\",\"nproc\":%d,\"gomaxprocs\":%d,\"go_version\":\"%s\",\"cpu_model\":\"%s\",\"benchmarks\":{%s}}", date, stamp, nproc, procs ? procs : 1, gover, cpu, benches
	}' "$txt")"
if [ -s "$traj" ]; then
	# Drop the closing bracket, append the new entry, close the array.
	sed '$d' "$traj" >"$traj.tmp"
	printf ',\n%s\n]\n' "$entry" >>"$traj.tmp"
	mv "$traj.tmp" "$traj"
else
	printf '[\n%s\n]\n' "$entry" >"$traj"
fi
echo "appended run to $traj" >&2

# Headline telemetry cost: BenchmarkObsOverhead compares the packet hot
# path baseline against metrics/latency-tracker/JSONL-export modes; the
# allocs/op columns must stay identical (budget: +1; see DESIGN.md §7).
grep 'BenchmarkObsOverhead' "$txt" >&2 || true

# Headline packet cost: BenchmarkHandlePacket on the one engine
# configuration stays at 7 allocs/op (TestHandlePacketTelemetryAllocs).
grep 'BenchmarkHandlePacket' "$txt" >&2 || true

# Headline maintenance cost: the steady-state refresh benchmarks report
# broadcasts/op and the digest suppression ratio (see DESIGN.md §8).
grep 'BenchmarkRefreshSteadyState' "$txt" >&2 || true

# Headline scale cost: grid-indexed recompute vs the O(n²) reference, the
# 20x20 build and the 2.5k-node refresh cycle (see DESIGN.md §6, §11).
grep 'BenchmarkRecompute10k\|BenchmarkSettle\|BenchmarkE15Scale' "$txt" >&2 || true

# Headline footprint: the E16 benchmarks report peak_rss_bytes and
# bytes_per_node, which the trajectory entry records so the memory
# history rides beside the timing history (see DESIGN.md §13).
grep 'BenchmarkE16' "$txt" >&2 || true

# Headline gateway cost: the tuple JSON codec and the per-subscription
# event frame, then one event through 100 subscriptions on two loopback
# connections (see DESIGN.md §15).
grep 'BenchmarkTupleJSON\|BenchmarkGateway' "$txt" >&2 || true

# Delta against the latest earlier trajectory entry stamped with the same
# hardware (nproc, CPU model, Go version): a delta across machines
# measures the machines, not the change. Entries are one JSON object per
# line; the last such line is the run just appended.
prev="$(grep '^{' "$traj" | sed '$d' | awk \
	-v n="\"nproc\":${nproc}," -v g="\"go_version\":\"${gover}\"" -v c="\"cpu_model\":\"${cpu:-unknown}\"" \
	'index($0, n) && index($0, g) && index($0, c) { last = $0 } END { print last }')"
if [ -z "$prev" ]; then
	echo "--- no comparable prior run (nproc=$nproc, $gover, ${cpu:-unknown}) ---" >&2
else
	echo "--- delta vs $(printf '%s\n' "$prev" | sed 's/.*"stamp":"\([^"]*\)".*/\1/') ---" >&2
	printf '%s\n' "$prev" | awk '
		NR == FNR {
			n = split($0, parts, /"Benchmark/)
			for (i = 2; i <= n; i++) {
				p = parts[i]
				name = "Benchmark" substr(p, 1, index(p, "\"") - 1)
				if (match(p, /"ns_op":[0-9.e+]+/)) ons[name] = substr(p, RSTART + 8, RLENGTH - 8)
				if (match(p, /"allocs_op":[0-9]+/)) oal[name] = substr(p, RSTART + 12, RLENGTH - 12)
			}
			next
		}
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			if (!(name in ons)) next
			ns = ""; al = ""
			for (i = 2; i <= NF; i++) {
				if ($i == "ns/op") ns = $(i - 1)
				if ($i == "allocs/op") al = $(i - 1)
			}
			line = sprintf("%-50s", name)
			if (ns != "" && ons[name] + 0 > 0)
				line = line sprintf("  ns/op %12.0f -> %12.0f (%+.1f%%)",
					ons[name], ns, (ns - ons[name]) / ons[name] * 100)
			if (al != "" && oal[name] + 0 > 0)
				line = line sprintf("  allocs/op %8d -> %8d (%+.1f%%)",
					oal[name], al, (al - oal[name]) / oal[name] * 100)
			print line
		}' - "$txt" >&2 || true
fi
