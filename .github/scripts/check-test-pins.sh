#!/usr/bin/env bash
# check-test-pins.sh fails when a test, benchmark or fuzz name that a
# workflow pins with go test's -run, -bench or -fuzz matches nothing in the
# packages it is run against. go test passes when a pattern matches no
# test, so without this check a deleted or renamed test would leave its
# pin silently empty.
#
# Usage: .github/scripts/check-test-pins.sh [workflow.yml]
# (default .github/workflows/ci.yml; run from the module root).
set -euo pipefail

wf=${1:-.github/workflows/ci.yml}
declare -A names # package -> its test, benchmark, fuzz and example names
checked=0
fail=0

while IFS= read -r line; do
	read -ra toks <<<"${line#*go test }"
	pats=()
	pkgs=()
	for ((i = 0; i < ${#toks[@]}; i++)); do
		case ${toks[i]} in
		-run | -bench | -fuzz)
			i=$((i + 1))
			pats+=("${toks[i]//\'/}")
			;;
		-timeout | -fuzztime) i=$((i + 1)) ;;
		-*) ;;
		. | ./*) pkgs+=("${toks[i]}") ;;
		esac
	done
	for pkg in "${pkgs[@]}"; do
		if [[ -z ${names[$pkg]+set} ]]; then
			names[$pkg]=$(go test -list . "$pkg" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
		fi
	done
	for pat in "${pats[@]}"; do
		[[ $pat == '^$' ]] && continue
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			checked=$((checked + 1))
			found=0
			for pkg in "${pkgs[@]}"; do
				if grep -Eq -- "$alt" <<<"${names[$pkg]}"; then
					found=1
					break
				fi
			done
			if ((!found)); then
				echo "$wf pins '$alt', which matches no test, benchmark or fuzz target in ${pkgs[*]}"
				fail=1
			fi
		done
	done
done < <(grep -E "go test .*-(run|bench|fuzz) " "$wf")

echo "checked $checked pinned names in $wf"
exit $fail
