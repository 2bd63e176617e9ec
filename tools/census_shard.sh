#!/bin/sh
# Sharded-census smoke: run the Lemma 21 adversary once directly, then
# as K cooperating shard collectors whose evidence files are merged
# back, and require the merged census fingerprint (and the whole
# verdict block) to be byte-identical to the unsharded run — for every
# K in the sweep. This is the end-to-end check of the `--shard I/K` /
# `--merge` protocol: sharding repartitions work, it must never
# repartition randomness.
#
# Usage: census_shard.sh STLB_EXE [WORKDIR] [M] [SEED]
# Exits non-zero on the first divergence.
set -u

STLB=$1
WORK=${2:-census-shard-work}
M=${3:-8}
SEED=${4:-42}
rm -rf "$WORK"
mkdir -p "$WORK"
fail() { echo "census-shard: FAIL: $1" >&2; exit 1; }

# verdict block of a run: everything except the timing-free lines are
# already deterministic, so no normalization is needed
"$STLB" adversary -m "$M" --seed "$SEED" >"$WORK/direct.out" ||
  fail "direct run"
ref_fp=$(sed -n 's/^census fingerprint: \(0x[0-9a-f]*\).*/\1/p' "$WORK/direct.out")
[ -n "$ref_fp" ] || fail "direct run printed no fingerprint"

for k in 2 3 4; do
  merge_args=""
  for i in $(seq 1 "$k"); do
    ev="$WORK/m$M-k$k-s$i.ev"
    "$STLB" adversary -m "$M" --seed "$SEED" --shard "$i/$k" --out "$ev" \
      >/dev/null || fail "collect shard $i/$k"
    merge_args="$merge_args --merge $ev"
  done
  # shellcheck disable=SC2086
  "$STLB" adversary -m "$M" --seed "$SEED" $merge_args \
    >"$WORK/merged-k$k.out" || fail "merge k=$k"
  fp=$(sed -n 's/^census fingerprint: \(0x[0-9a-f]*\).*/\1/p' "$WORK/merged-k$k.out")
  [ "$fp" = "$ref_fp" ] ||
    fail "k=$k merged fingerprint $fp != unsharded $ref_fp"
done

echo "census-shard: OK (m=$M seed=$SEED, k=2..4 merges all at $ref_fp)"
