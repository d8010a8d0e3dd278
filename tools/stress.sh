#!/usr/bin/env bash
# Flake hunt: run the test binary N times, each with a fresh qcheck seed and
# under a timeout, and report how many runs passed, failed or hung, with the
# seed of every run that did not pass (re-run one with QCHECK_SEED=<seed>).
#
#   dune build @stress                      50 runs
#   XIA_STRESS_RUNS=200 dune build @stress  another run count
#
# A run that exceeds 120 s (a full run takes about 4 s) counts as a hang.
# The output of every run that did not pass is kept in stress-<seed>.log in
# the working directory.  Exits 1 when any run failed or hung.
set -u

exe=${1:?usage: stress.sh TEST_EXE}
case $exe in */*) ;; *) exe=./$exe ;; esac
runs=${XIA_STRESS_RUNS:-50}
limit=120

pass=0 fail=0 hang=0
bad=()
for i in $(seq 1 "$runs"); do
  seed=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
  start=$SECONDS
  QCHECK_SEED=$seed timeout "$limit" "$exe" > "stress-$seed.log" 2>&1
  status=$?
  if [ "$status" -eq 0 ]; then
    pass=$((pass + 1))
    rm -f "stress-$seed.log"
    verdict=pass
  elif [ "$status" -eq 124 ]; then
    hang=$((hang + 1))
    bad+=("$seed (hang)")
    verdict="HANG after ${limit}s"
  else
    fail=$((fail + 1))
    bad+=("$seed (exit $status)")
    verdict="FAIL (exit $status)"
  fi
  echo "stress: run $i/$runs seed $seed: $verdict in $((SECONDS - start))s"
done

echo "stress: $pass passed, $fail failed, $hang hung of $runs runs"
for b in "${bad[@]+"${bad[@]}"}"; do
  echo "stress: seed $b, log stress-${b%% *}.log"
done
[ $((fail + hang)) -eq 0 ]
