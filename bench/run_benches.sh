#!/usr/bin/env bash
# Run every Google Benchmark binary and write BENCH_<name>.json next to the
# results of previous runs, seeding the perf-trajectory files.
#
#   bench/run_benches.sh [build-dir] [output-dir] [extra benchmark args...]
#
# Defaults: build-dir = build, output-dir = bench/results.
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-bench/results}"
shift $(( $# > 2 ? 2 : $# )) || true

if [[ ! -d "${build_dir}/bench" ]]; then
  echo "error: ${build_dir}/bench not found — build first:" >&2
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
  exit 1
fi

mkdir -p "${out_dir}"

# Stamp the run's provenance into the benchmark JSON context so committed
# result files identify exactly what produced them.
stamp_json() {
  python3 - "$1" "${build_dir}" <<'PY'
import json, os, platform, subprocess, sys

path, build_dir = sys.argv[1], sys.argv[2]
try:
    with open(path) as f:
        data = json.load(f)
except (OSError, json.JSONDecodeError):
    # A filter that matches nothing leaves an empty output file; skip it.
    print(f"   (no JSON to stamp in {path})")
    sys.exit(0)

def git(*args):
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    except Exception:
        return "unknown"

ctx = data.setdefault("context", {})
ctx["git_commit"] = git("rev-parse", "HEAD")
ctx["git_dirty"] = git("status", "--porcelain") != ""
try:
    # NCPM_LANES overrides the default executor width (see
    # pram::default_lanes); unset means hardware concurrency.
    threads = int(os.environ.get("NCPM_LANES", ""))
except ValueError:
    threads = 0
ctx["threads"] = threads or os.cpu_count()
ctx["hardware_concurrency"] = os.cpu_count()
# SIMD tier cap, as configured for this run. The cap is the one the
# library applies: an unset or unrecognised NCPM_SIMD leaves runtime
# dispatch in charge ("auto"; the per-series tiers live in each bench's
# "simd_tier" counter).
simd_cap = os.environ.get("NCPM_SIMD", "")
ctx["simd"] = {"avx2": "avx2", "scalar": "scalar"}.get(simd_cap, "auto")
# Solver-phase profiler state for the run. "default" = each bench's own
# EngineConfig.profile_phases (on unless the bench A/Bs it, e.g.
# BM_MetricsOverhead's per-series profile_phases counter).
ctx["profile_phases"] = os.environ.get("NCPM_PROFILE_PHASES", "default")
cpu = platform.processor() or "unknown"
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
except OSError:
    pass
ctx["cpu_model"] = cpu
# Google Benchmark's own "library_build_type" describes the benchmark
# library, not ncpm; the build type the measured code was compiled with
# comes from the build tree's CMake cache.
build_type = "unknown"
try:
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip() or "unknown"
                break
except OSError:
    pass
ctx["ncpm_build_type"] = build_type

with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
PY
}

found=0
for bin in "${build_dir}"/bench/bench_*; do
  [[ -f "${bin}" && -x "${bin}" ]] || continue
  found=1
  name="$(basename "${bin}")"
  out="${out_dir}/BENCH_${name#bench_}.json"
  echo "== ${name} -> ${out}"
  "${bin}" --benchmark_format=json --benchmark_out="${out}" \
           --benchmark_out_format=json "$@"
  stamp_json "${out}"
done

if [[ "${found}" -eq 0 ]]; then
  echo "error: no bench_* binaries under ${build_dir}/bench" >&2
  exit 1
fi
