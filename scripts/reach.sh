#!/usr/bin/env bash
# reach.sh: which production functions does any command reach?
#
# Builds every command under cmd/ with coverage over the whole module,
# runs each on the inputs below (one GOCOVERDIR per run), merges the
# profiles with `go tool covdata func` and prints every function outside
# cmd/bench that no run reached (0.0 %). Offline; all output goes to a
# temporary directory, none into the repository.
#
#	scripts/reach.sh            # the full sweep, ~25 min on 2 cores
#
# Per-run wall times go to stderr as "time <run> <seconds>s".
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/reach.XXXXXX")
bin=$tmp/bin
cov=$tmp/cov
mkdir -p "$bin" "$cov"
routed_pid=
cleanup() {
	if [ -n "$routed_pid" ]; then kill "$routed_pid" 2>/dev/null || true; fi
	rm -rf "$tmp"
}
trap cleanup EXIT

cmds="dflyinfo dflysim experiment figures routed tvlb bench"
for c in $cmds; do
	go build -cover -coverpkg=./... -o "$bin/$c" "./cmd/$c"
done

# run <label> <command> [args...]: one instrumented run, output to the
# temporary directory, its wall time to stderr.
n=0
run() {
	local label=$1
	shift
	n=$((n + 1))
	local dir=$cov/$n-$label
	mkdir -p "$dir"
	local start=$SECONDS
	GOCOVERDIR=$dir "$bin/$@" >"$dir.out" 2>&1 || {
		echo "reach: run $label failed:" >&2
		tail -n 5 "$dir.out" >&2
		exit 1
	}
	echo "time $label $((SECONDS - start))s" >&2
}

# A run that must fail with this status (a refusal is code too).
run_refused() {
	local label=$1 want=$2
	shift 2
	n=$((n + 1))
	local dir=$cov/$n-$label
	mkdir -p "$dir"
	local got=0
	GOCOVERDIR=$dir "$bin/$@" >"$dir.out" 2>&1 || got=$?
	if [ "$got" != "$want" ]; then
		echo "reach: run $label exited $got, want $want" >&2
		exit 1
	fi
	echo "time $label refused" >&2
}

# tvlb at its default, pristine and degraded.
run tvlb tvlb
run tvlb-fail tvlb -fail global:0:0

# dflysim: every routing scheme, every pattern of spec.Pattern's grammar,
# failures, shards with channel statistics, a sweep over two seeds, and
# the d3 family; a benchmark pattern the grammar no longer has is refused.
short="-warmup 500 -measure 500 -drain 2000"
for r in min vlb ugal-l ugal-g ugal-pb par t-ugal-l t-ugal-g t-ugal-pb t-par; do
	run "dflysim-$r" dflysim -routing "$r" $short
done
for p in ur uniform shift shift:1:2 adv:2 perm gperm mixed mixed:30 tmixed:30; do
	run "dflysim-$p" dflysim -pattern "$p" $short
done
run dflysim-fail dflysim -fail global:4:3,local:0:1,switch:68 -chanstats $short
run dflysim-shards dflysim -shards 2 -chanstats $short
run dflysim-sweep dflysim -sweep -seeds 2 -points 3 $short
run dflysim-d3 dflysim -topo 'd3(12,4)' $short
run_refused dflysim-usage 2 dflysim -measure 0
run_refused dflysim-pattern-removed 2 dflysim -pattern tornado
run_refused dflysim-pattern-extra-field 2 dflysim -pattern mixed:25:50

# experiment: the example suite, then the suite run on it.
run experiment-example experiment -example
cp "$cov/$n-experiment-example.out" "$tmp/suite.json"
run experiment-suite experiment -suite "$tmp/suite.json" -o "$tmp/results.json"

# dflyinfo on four topologies.
run dflyinfo dflyinfo
run dflyinfo-g17 dflyinfo -topo 'dfly(4,8,4,17)' -policies full,strategic:2,capped:4:0.6 -tables
run dflyinfo-d3 dflyinfo -topo 'd3(12,4)' -tables
run dflyinfo-sw702 dflyinfo -topo 'dfly(13,26,13,27)'

# routed: three scripted sessions, each a good and a malformed lookup, a
# good and a bad failure, the statistics, then SIGINT so the counters
# are written; and the refusal of a set past the PathID space.
port=18731
routed_session() {
	local label=$1
	shift
	n=$((n + 1))
	local dir=$cov/$n-$label
	mkdir -p "$dir"
	local start=$SECONDS
	GOCOVERDIR=$dir "$bin/routed" -addr "127.0.0.1:$port" "$@" >"$dir.out" 2>&1 &
	routed_pid=$!
	local url=http://127.0.0.1:$port
	for _ in $(seq 100); do
		curl -s -o /dev/null "$url/stats" && break
		sleep 0.2
	done
	curl -s -X POST "$url/lookup" -d '{"pairs":[[0,37],[5,2]]}' >>"$dir.out"
	curl -s -X POST "$url/lookup" -d '{"pairs":[[0,' >>"$dir.out"
	curl -s -X POST "$url/fail?spec=global:0:1" >>"$dir.out"
	curl -s -X POST "$url/fail?spec=global:1:0,bogus" >>"$dir.out"
	curl -s "$url/stats" >>"$dir.out"
	kill -INT "$routed_pid"
	wait "$routed_pid" || {
		echo "reach: routed session $label did not exit cleanly" >&2
		exit 1
	}
	routed_pid=
	echo "time $label $((SECONDS - start))s" >&2
}
routed_session routed-ugal -topo 'dfly(2,4,2,5)'
routed_session routed-min -topo 'dfly(2,4,2,5)' -mode min -fail switch:3
routed_session routed-vlb -topo 'dfly(2,4,2,9)' -mode vlb -policy strategic:2
run_refused routed-sw702 1 routed -topo 'dfly(13,26,13,27)'

# bench: the quick tier, traced; its children inherit GOCOVERDIR.
run bench bench -quick -trace 1 -builddir "$tmp/benchbuild"

# figures, last because it is the longest (about 20 min): every
# experiment at demo scale, and one with the plot, progress and TSV
# output.
run figures-all figures -exp all
run figures-fig6 figures -exp fig6 -plot -progress -o "$tmp/figures"

dirs=$(ls -d "$cov"/*/ | tr '\n' ',' | sed 's/,$//; s#/,#,#g; s#/$##')
go tool covdata func -i="$dirs" >"$tmp/func.txt"
total=$(grep -v '^total' "$tmp/func.txt" | grep -v '^tugal/cmd/bench/' | wc -l)
grep -v '^tugal/cmd/bench/' "$tmp/func.txt" | awk '$NF == "0.0%"' | tee "$tmp/unreached.txt"
echo "unreached: $(wc -l <"$tmp/unreached.txt") of $total functions outside cmd/bench" >&2
