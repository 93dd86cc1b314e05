#!/usr/bin/env bash
# Campaign smoke over the lf_run / lf_campaign binaries in BUILD_DIR:
#
#   scripts/campaign_smoke.sh BUILD_DIR
#
# A 4-shard campaign over a small grid: shard 0 is killed after one
# row (--max-new 1; its partial cell is flushed to the result cache),
# every shard is then run to completion (shard 0 resumes), and the
# merged summary must be byte-identical to the unsharded lf_run
# --summary of the same grid. The same grid re-planned into a second
# directory then runs wholly from the cache: status must report a
# 100.0% hit rate and its merged summary must match too. Both CLIs
# parse the grid flags through one parser, so the golden cmp also
# checks that they build the same sweep. Working files go under
# BUILD_DIR/campaign-smoke*.
set -euo pipefail

build="${1:?usage: campaign_smoke.sh BUILD_DIR}"
grid=(--channel nonmt-fast-eviction --channel slow-switch
      --cpu "Gold 6226" --sweep rounds=5:10:5 --trials 2 --bits 12
      --seed 11)
camp_dir="${build}/campaign-smoke"
rm -rf "${camp_dir}" "${camp_dir}-cache" "${camp_dir}-warm"

"${build}/lf_run" "${grid[@]}" --summary "${camp_dir}.golden" --quiet
"${build}/lf_campaign" plan --dir "${camp_dir}" --shards 4 \
    "${grid[@]}" --quiet
"${build}/lf_campaign" run-shard --dir "${camp_dir}" --shard 0 \
    --max-new 1 --cache "${camp_dir}-cache" --quiet
for shard in 0 1 2 3; do
    "${build}/lf_campaign" run-shard --dir "${camp_dir}" \
        --shard "${shard}" --cache "${camp_dir}-cache" --quiet
done
"${build}/lf_campaign" status --dir "${camp_dir}"
"${build}/lf_campaign" merge --dir "${camp_dir}" --quiet
cmp "${camp_dir}.golden" "${camp_dir}/merged_summary.txt"

"${build}/lf_campaign" plan --dir "${camp_dir}-warm" --shards 4 \
    "${grid[@]}" --quiet
for shard in 0 1 2 3; do
    "${build}/lf_campaign" run-shard --dir "${camp_dir}-warm" \
        --shard "${shard}" --cache "${camp_dir}-cache" --quiet
done
warm_status="$("${build}/lf_campaign" status --dir "${camp_dir}-warm")"
echo "${warm_status}"
grep -q "cache hit rate 100.0%" <<< "${warm_status}"
"${build}/lf_campaign" merge --dir "${camp_dir}-warm" --quiet
cmp "${camp_dir}.golden" "${camp_dir}-warm/merged_summary.txt"
echo "campaign smoke passed"
