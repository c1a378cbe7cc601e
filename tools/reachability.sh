#!/usr/bin/env bash
# Reachability report: lists every shg:: function that libshg.a defines but
# that no product binary links, then the src/ line counts per module and in
# total (the size metric the roadmap tracks).
#
# The library is built at -O0 with one section per function, and every root
# is linked with --gc-sections, so a function survives in a root only when
# some call chain from that root's main() reaches it. The roots are the
# example binaries, every bench_* binary and the perfbench driver; tests are
# not roots, so a listed function is reached from tests at most.
#
# Usage (from the repository root):
#
#     tools/reachability.sh [build-dir]      # default build-reach
#
# Prints the unreached names (demangled, sorted), their count, and the line
# counts of src/shg/<module>/*.[ch]pp. It is a report, not a gate: it exits
# 0 unless the build fails.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-build-reach}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
jobs=$(nproc 2>/dev/null || echo 2)
if [ "$jobs" -gt 4 ]; then jobs=4; fi
flags="-O0 -ffunction-sections"
link_flags="-Wl,--gc-sections"

mkdir -p "$build"
cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link_flags" \
  -DSHG_BUILD_TESTS=OFF -DSHG_BUILD_BENCH=ON -DSHG_BUILD_EXAMPLES=ON \
  > "$build/configure.log" 2>&1 ||
  { cat "$build/configure.log" >&2; exit 1; }
cmake --build "$build" -j "$jobs" > "$build/build.log" 2>&1 ||
  { tail -n 50 "$build/build.log" >&2; exit 1; }

# The perfbench driver, linked against the same library.
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")
"${cxx:-c++}" -std=c++20 $flags -I "$root/src" \
  -DSHG_BENCH_BUILD_TYPE='"None"' -DSHG_BENCH_COMPILER='"reachability"' \
  "$root"/perfbench/*.cpp "$build/libshg.a" -pthread $link_flags \
  -o "$build/shg_perfbench"

# Demangled names of the functions (text symbols) an object defines in
# namespace shg. Matching the mangled prefix keeps std:: instantiations over
# shg types and lambda bodies (reported through their enclosing function)
# out of the list.
functions() {
  nm --defined-only "$@" 2>/dev/null |
    sed -nE 's/^[0-9a-fA-F]+ [TtWi] (_ZNK?3shg[^ ]*)$/\1/p' |
    c++filt | sort -u
}

roots=("$build"/example_* "$build"/bench_* "$build/shg_perfbench")
functions "$build/libshg.a" > "$build/defined.txt"
functions "${roots[@]}" > "$build/reached.txt"
comm -23 "$build/defined.txt" "$build/reached.txt" > "$build/unreached.txt"

echo "shg:: functions defined in libshg.a but linked into none of" \
  "${#roots[@]} roots:"
cat "$build/unreached.txt"
echo "$(wc -l < "$build/unreached.txt") unreached"

echo "src/ lines per module:"
for dir in "$root"/src/shg/*/; do
  printf '%7d  %s\n' "$(cat "$dir"*.[ch]pp | wc -l)" "$(basename "$dir")"
done
echo "$(find "$root/src" -name '*.[ch]pp' -exec cat {} + | wc -l) src/ lines" \
  "in total"
