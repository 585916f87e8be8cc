#!/usr/bin/env bash
# Print every record of a DEPKIT_BENCH_JSON file (one JSON object per
# line, as the criterion harness appends them) as a ratio to the same
# file's `dependency_discovery/discover_reference/64000` median. That
# control runs unchanged code in the same pass, so the ratios cancel the
# host drift that makes absolute medians incomparable across days.
#
# Usage: crates/bench/control_ratio.sh criterion-medians.json
#
# Output: one `name<TAB>median_ns<TAB>ratio` line per record, in file
# order. Exits non-zero when the file holds no control record.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <DEPKIT_BENCH_JSON file>" >&2
  exit 2
fi

jq -r -s --arg control "dependency_discovery/discover_reference/64000" '
  (map(select(.name == $control)) | last) as $c
  | if $c == null then
      error("no \($control) record in the file: ratios need the same-run control")
    else
      .[] | "\(.name)\t\(.median_ns)\t\(.median_ns / $c.median_ns)"
    end
' "$1"
