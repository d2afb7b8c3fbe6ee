#!/usr/bin/env bash
# Reachability census: the external sf:: functions that the libraries
# define but that no product binary links. A product is perfbench_driver
# or one of the six examples; tests and benches are not products.
#
# Usage:
#   tools/unreached.sh            print the unreached functions, one a line
#   tools/unreached.sh --check    compare them with tools/unreached.allow;
#                                 exit 1 on a new unreached function or on
#                                 an allow entry that matches nothing
#
# Recipe (DESIGN.md "Reachability"): configure a separate tree from
# perfbench/ with -fno-inline -ffunction-sections, build the products, then
# relink each one with --gc-sections against every libsf_*.a taken whole.
# The linker keeps exactly the functions some path from main (or a static
# initializer) references. -fno-inline keeps a function that every caller
# inlines from reading as unreached; the repo's own -O2 still applies.
# Names are cut at their parameter list, so overloads merge; lambdas,
# template instantiations and destructors are skipped (a destructor goes
# with its class, whose constructors are listed, and an empty one is
# dropped at its call sites even under -fno-inline). Exits non-zero if a
# product fails to build or link.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${root}/build-unreached"
allow="${root}/tools/unreached.allow"
products=(perfbench_driver quickstart train_minifold cluster_scaling
  data_pipeline_demo mlperf_partial serve_demo)

mode=print
case "${1:-}" in
  "") ;;
  --check) mode=check ;;
  *)
    echo "usage: $0 [--check]" >&2
    exit 2
    ;;
esac

cmake -S "${root}/perfbench" -B "${build}" \
  -DCMAKE_CXX_FLAGS="-fno-inline -ffunction-sections" >/dev/null
cmake --build "${build}" -j "$(nproc)" --target "${products[@]}" >/dev/null

mapfile -t libs < <(find "${build}/scalefold/src" -name 'libsf_*.a' | sort)
[ "${#libs[@]}" -gt 0 ] || { echo "no libsf_*.a under ${build}" >&2; exit 1; }

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Demangled external function names -> sf:: names up to the parameter list.
names() {
  c++filt | awk '
    $2 != "T" && $2 != "W" { next }
    {
      name = $0
      sub(/^[0-9a-f]+ +[TW] +/, "", name)
      sub(/^ *[TW] +/, "", name)
      if (name !~ /^sf::/ || name ~ /\{lambda|\{unnamed|::~/) next
      # "operator()" is the one name whose own text holds a parenthesis.
      gsub(/operator\(\)/, "operator@@", name)
      p = index(name, "(")
      if (p > 0) name = substr(name, 1, p - 1)
      gsub(/operator@@/, "operator()", name)
      stripped = name
      gsub(/operator(<<=|<<|<=|<)/, "", stripped)
      if (stripped ~ /</) next  # a template instantiation
      print name
    }'
}

for lib in "${libs[@]}"; do nm --defined-only "${lib}" 2>/dev/null; done |
  names | sort -u >"${tmp}/defined"

: >"${tmp}/reached"
for p in "${products[@]}"; do
  link="$(find "${build}" -path "*/${p}.dir/link.txt" | head -n 1)"
  [ -n "${link}" ] || { echo "no link line for ${p}" >&2; exit 1; }
  dir="$(dirname "$(dirname "$(dirname "${link}")")")"
  # Keep the compile flags and object of CMake's link line; replace its
  # library list with the whole archives.
  cmd="$(sed -E "s# -o .*# -o ${tmp}/${p}#" "${link}")"
  if ! (cd "${dir}" && eval "${cmd} -Wl,--gc-sections -Wl,--whole-archive \
      ${libs[*]} -Wl,--no-whole-archive -pthread"); then
    echo "relink of ${p} failed" >&2
    exit 1
  fi
  nm --defined-only "${tmp}/${p}" | names >>"${tmp}/reached"
done
sort -u -o "${tmp}/reached" "${tmp}/reached"

comm -23 "${tmp}/defined" "${tmp}/reached" >"${tmp}/unreached"

if [ "${mode}" = print ]; then
  cat "${tmp}/unreached"
  exit 0
fi

# --check: every unreached name must match an allow entry (exact, or a
# prefix when the entry ends in '*'), every entry must match a name, and
# every entry must give one of the reasons listed in the allow file.
awk -v allow="${allow}" '
  BEGIN {
    known = "^(test-only|test-reference|ci-gate [a-z0-9_]+|" \
            "pending item [0-9]+|sim)$"
    while ((getline line < allow) > 0) {
      if (line ~ /^[ \t]*(#|$)/) continue
      reason = line
      sub(/^[^#]*#[ \t]*/, "", reason)
      if (line !~ /#/ || reason !~ known) {
        print "allow entry without a known reason: " line; bad = 1
      }
      sub(/[ \t]*#.*/, "", line)
      entry[++n] = line
    }
  }
  {
    ok = 0
    for (i = 1; i <= n; ++i) {
      e = entry[i]
      if (e ~ /\*$/) {
        if (index($0, substr(e, 1, length(e) - 1)) == 1) ok = 1
      } else if ($0 == e) ok = 1
      if (ok) { used[i] = 1; break }
    }
    if (!ok) { print "new unreached function: " $0; bad = 1 }
  }
  END {
    for (i = 1; i <= n; ++i)
      if (!used[i]) { print "stale allow entry: " entry[i]; bad = 1 }
    if (bad) exit 1
    print "unreached functions match " allow
  }' "${tmp}/unreached"
