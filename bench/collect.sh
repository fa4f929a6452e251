#!/usr/bin/env bash
# Collects runs for compare mode: every workload at seeds FIRST..FIRST+N-1,
# appended to OUT in run order.
#   bash bench/collect.sh OUT [N=10] [FIRST=1] [TRACE=0]
set -euo pipefail
out=$1
n=${2:-10}
first=${3:-1}
trace=${4:-0}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
for ((seed = first; seed < first + n; seed++)); do
  for w in train_halfv3d serve_unique2d serve_zipf2d infer_mega3d; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --trace "$trace" >>"$out" ||
      echo "collect: $w seed $seed exited $?" >&2
  done
done
