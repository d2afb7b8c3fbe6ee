#!/usr/bin/env bash
# Net line count of a change: lines added, deleted and net per top-level
# source directory, from `git diff --numstat`, plus a total.
#
# Usage: tools/net_lines.sh [<base-rev>]   (default HEAD~1)
# Compares <base-rev> with the working tree; new files count once they are
# staged (`git add`). Informational only; no CI lane gates on it.
set -euo pipefail

base="${1:-HEAD~1}"
dirs=(src bench tests tools examples)

cd "$(git rev-parse --show-toplevel)"
git diff --numstat "$base" -- "${dirs[@]}" |
  awk -v order="${dirs[*]}" '
    BEGIN { n = split(order, names, " ") }
    $1 != "-" {  # binary files report "-"
      split($3, parts, "/")
      add[parts[1]] += $1; del[parts[1]] += $2
      tadd += $1; tdel += $2
    }
    END {
      printf "%-10s %8s %8s %8s\n", "dir", "added", "deleted", "net"
      for (i = 1; i <= n; ++i) {
        d = names[i]
        printf "%-10s %8d %8d %+8d\n", d, add[d], del[d], add[d] - del[d]
      }
      printf "%-10s %8d %8d %+8d\n", "total", tadd, tdel, tadd - tdel
    }'
