#!/usr/bin/env bash
# Runs every workload BENCHMARK.json names, untraced and traced, for a few
# seconds each, and fails unless every run's output is whole: stdout is the
# stamp line plus one result line, the result reads correct, it carries
# every metric BENCHMARK.json lists for that mode (end_to_end untraced,
# per_layer traced), and stderr names no metric as absent.
#
# From the root of a checkout, with jq installed:
#
#   bash .github/scripts/perfbench-smoke.sh [seconds]
set -euo pipefail
secs="${1:-3}"
mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
failed=0
for w in "${workloads[@]}"; do
	for trace in 0 1; do
		kind=end_to_end
		if [ "$trace" = 1 ]; then kind=per_layer; fi
		run="$w --trace $trace"
		if ! "${cmd[@]}" --workload "$w" --seed 1 --seconds "$secs" --trace "$trace" \
			>"$tmp/out" 2>"$tmp/err"; then
			echo "FAIL $run: exit status nonzero" >&2
			cat "$tmp/err" >&2
			failed=1
			continue
		fi
		problems=()
		if [ "$(wc -l <"$tmp/out")" != 2 ]; then
			problems+=("stdout has $(wc -l <"$tmp/out") lines, want the stamp line and one result line")
		fi
		if ! sed -n 1p "$tmp/out" | jq -e 'has("stamp")' >/dev/null 2>&1; then
			problems+=("line 1 is not the stamp line")
		fi
		result="$(sed -n 2p "$tmp/out")"
		if ! jq -e '.correct == true' >/dev/null 2>&1 <<<"$result"; then
			problems+=("the result line does not read correct: true")
		else
			missing="$(jq -r --argjson r "$result" --arg k "$kind" \
				'.[$k][].name | select($r.metrics[.] == null)' BENCHMARK.json)"
			if [ -n "$missing" ]; then
				problems+=("missing $kind metrics: $(echo $missing)")
			fi
		fi
		if grep -q absent "$tmp/err"; then
			problems+=("stderr names absent metrics: $(grep absent "$tmp/err" | tr '\n' ' ')")
		fi
		if [ "${#problems[@]}" -gt 0 ]; then
			for p in "${problems[@]}"; do echo "FAIL $run: $p" >&2; done
			cat "$tmp/out" "$tmp/err" >&2
			failed=1
		else
			echo "ok   $run: $(jq -r '.metrics | length' <<<"$result") metrics"
		fi
	done
done
exit "$failed"
