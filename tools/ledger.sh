#!/usr/bin/env bash
# Exact work ledger: gcov line executions of worldbench worlds.
#
#   tools/ledger.sh WORKLOAD SEED [WORLD...]    # worlds default to 0
#   tools/ledger.sh chaos_mixed 1 $(seq 0 99)   # counts add up over worlds
#
# Configures worldbench (its own CMake package, -O2 -DNDEBUG) with
# --coverage into $LEDGER_BUILD_DIR (default .ledger_build, no file under
# worldbench/ changes), zeroes the counters, runs `worldbench --world I` for
# each given world, then runs `gcov -l -p` once per object file. It prints
# line executions per translation unit (each with every header it
# includes, system headers too), per src/ layer (worldbench's own sources
# are "bench"), and the hottest source lines summed over all translation
# units. Line counts are deterministic: two runs of one world print the
# same totals. They count source lines as instrumented, not instructions,
# and every record gcov prints: a template line counts in its merged
# record and again in each per-instantiation block (about a tenth of a
# total). ROADMAP.md states its ledger gates in this unit.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 WORKLOAD SEED [WORLD...]" >&2
  exit 2
fi
workload="$1"
seed="$2"
shift 2
worlds=("$@")
[ ${#worlds[@]} -gt 0 ] || worlds=(0)

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(mkdir -p "${LEDGER_BUILD_DIR:-${root}/.ledger_build}" && \
         cd "${LEDGER_BUILD_DIR:-${root}/.ledger_build}" && pwd)"

generator=()
if command -v ninja > /dev/null && [ ! -f "${build}/CMakeCache.txt" ]; then
  generator=(-G Ninja)
fi
cmake -S "${root}/worldbench" -B "${build}" "${generator[@]}" \
  -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=--coverage > /dev/null
cmake --build "${build}" --target worldbench -j "$(nproc 2>/dev/null || echo 2)" \
  > /dev/null

find "${build}" -name '*.gcda' -delete
for world in "${worlds[@]}"; do
  "${build}/worldbench" --workload "${workload}" --seed "${seed}" \
    --trace 0 --world "${world}" | tail -n 1 >&2
done

gcov_dir="${build}/gcov"
rm -rf "${gcov_dir}"
mkdir -p "${gcov_dir}"
n=0
while IFS= read -r gcda; do
  n=$((n + 1))
  mkdir -p "${gcov_dir}/${n}"
  printf '%s\n' "${gcda}" > "${gcov_dir}/${n}/TU"
  (cd "${gcov_dir}/${n}" && gcov -l -p "${gcda}" > /dev/null 2>&1)
done < <(find "${build}" -name '*.gcda' | sort)

python3 - "${gcov_dir}" "${root}" "${workload}" "${seed}" "${worlds[*]}" <<'EOF'
import collections, os, sys

gcov_dir, root, workload, seed, worlds = sys.argv[1:]
per_tu = collections.Counter()
per_line = collections.Counter()
text = {}


def rel(path):
    path = os.path.normpath(path)
    return os.path.relpath(path, root) if path.startswith(root + "/") else path


for entry in os.listdir(gcov_dir):
    tu_dir = os.path.join(gcov_dir, entry)
    with open(os.path.join(tu_dir, "TU")) as f:
        gcda = f.read().strip()
    tu_name = os.path.basename(gcda)[: -len(".gcda")]
    tu = None
    for name in os.listdir(tu_dir):
        if not name.endswith(".gcov"):
            continue
        source = None
        with open(os.path.join(tu_dir, name), errors="replace") as f:
            for line in f:
                count, _, rest = line.partition(":")
                lineno, _, src = rest.partition(":")
                count, lineno = count.strip(), lineno.strip()
                if lineno == "0":
                    if src.startswith("Source:"):
                        source = rel(src[len("Source:"):].strip())
                        if tu is None and source.endswith("/" + tu_name):
                            tu = source
                    continue
                if not lineno.isdigit() or count in ("-", "#####", "====="):
                    continue
                hits = int(count.rstrip("*"))
                per_tu[tu_dir] += hits
                per_line[(source, int(lineno))] += hits
                text[(source, int(lineno))] = src.rstrip("\n")
        if tu is None and source is not None and source.endswith("/" + tu_name):
            tu = source
    per_tu[tu or gcda] = per_tu.pop(tu_dir, 0)

total = sum(per_tu.values())
print(f"ledger: workload={workload} seed={seed} worlds={worlds}")
print(f"total line executions: {total:,}")


def layer(tu):
    parts = tu.split("/")
    return parts[1] if parts[0] == "src" and len(parts) > 2 else "bench"


def pct(n):
    return 100.0 * n / total if total else 0.0


print("\nper translation unit (headers included):")
for tu, n in sorted(per_tu.items(), key=lambda kv: (-kv[1], kv[0])):
    if n:
        print(f"  {n:>15,}  {pct(n):5.1f}%  {tu}")
by_layer = collections.Counter()
for tu, n in per_tu.items():
    by_layer[layer(tu)] += n
print("\nper layer:")
for name, n in sorted(by_layer.items(), key=lambda kv: (-kv[1], kv[0])):
    print(f"  {n:>15,}  {pct(n):5.1f}%  {name}")
print("\ntop lines (summed over translation units):")
for (source, lineno), n in sorted(per_line.items(),
                                  key=lambda kv: (-kv[1], kv[0]))[:25]:
    print(f"  {n:>15,}  {source}:{lineno}  {text[(source, lineno)].strip()[:60]}")
EOF
