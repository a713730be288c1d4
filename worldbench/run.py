#!/usr/bin/env python3
"""Build the world benchmark from source and run it.

Run from the repository root:

    python3 worldbench/run.py --workload nested_abort --seed 1 --seconds 28 --trace 0

Every argument is handed to the worldbench binary (see worldbench/README.md).
The library and the binary are built into $CARGO_TARGET_DIR, or .bench_build
when it is unset; the build log goes to stderr, so the last line of stdout is
the binary's JSON result. Exits non-zero without a result when the build
fails, e.g. in a directory without the library sources.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path


def build(source: Path, build_dir: Path) -> Path:
    configure = ["cmake", "-S", str(source), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(os.cpu_count() or 1, 4))
    for step in (configure,
                 ["cmake", "--build", str(build_dir), "--target", "worldbench",
                  "-j", jobs]):
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "worldbench"


def main() -> int:
    source = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(source, build_dir.resolve())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"worldbench: build failed: {err}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args and "--spans-dir" not in args:
        args += ["--spans-dir", str(build_dir / "spans")]
    sys.stdout.flush()
    return subprocess.run([str(binary), *args], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
