#!/usr/bin/env bash
# Records untraced runs for `perfbench compare`: every workload for
# seeds 1..N in each of the given checkouts (the root of a checkout of
# each commit to compare), alternating from seed to seed which checkout
# runs first, so that a slow spell on the machine falls on both sides.
#
#   bash perfbench/sweep.sh OUT N SECONDS CHECKOUT...
#   bash perfbench/run.sh compare OUT/0 OUT/1
#
# Every workload the first checkout's benchmark names runs. The i-th
# checkout's runs land in OUT/i/<workload>-seed<n>.txt. A run that fails
# keeps its output file and the sweep goes on; the exit status is 1 if
# any run failed.
set -uo pipefail

if [ $# -lt 4 ]; then
	echo "usage: sweep.sh OUT N SECONDS CHECKOUT..." >&2
	exit 2
fi
out=$(mkdir -p "$1" && cd "$1" && pwd)
n=$2
secs=$3
shift 3
checkouts=("$@")
workloads=$(cd "${checkouts[0]}" && bash perfbench/run.sh workloads) || exit 1
status=0
for w in $workloads; do
	for seed in $(seq 1 "$n"); do
		for k in $(seq 0 $((${#checkouts[@]} - 1))); do
			i=$(((k + seed) % ${#checkouts[@]}))
			mkdir -p "$out/$i"
			file="$out/$i/$w-seed$seed.txt"
			if ! (cd "${checkouts[$i]}" && bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 0) >"$file"; then
				echo "sweep: $w seed $seed in ${checkouts[$i]} failed (see $file)" >&2
				status=1
			fi
		done
	done
done
exit $status
