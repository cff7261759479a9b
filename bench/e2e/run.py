#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one workload (README.md).

    python3 bench/e2e/run.py --workload steady --seed 1 --seconds 10 --trace 0
    python3 bench/e2e/run.py --self-test

The benchmark builds inside the root CMake project: run.py configures the
checkout's CMakeLists.txt with bench/e2e/inject.cmake as
CMAKE_PROJECT_INCLUDE, which adds the bench_e2e target to it, so the
binary gets the root project's flags, options and defaults. The build
directory is $CARGO_TARGET_DIR/bench_e2e-<checkout hash>, or
.bench_build/bench_e2e-<checkout hash> when that variable is unset: two
checkouts sharing CARGO_TARGET_DIR never build into the same tree. The
first run builds, later runs only check that the build is current.

--trace 0 prints the end-to-end metrics, --trace 1 runs traced ops and
prints the per-layer metrics instead. Either way the detailed record
(e2e_<workload>.json, e2e_<workload>_trace.json) and, for --trace 1, the
Chrome trace (e2e_trace_<workload>.json) land in the build directory, and
the last line of stdout is the result JSON bench_e2e prints. The exit code
is bench_e2e's: 0 when every output check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"run.py: no carpool sources ({need}) in this checkout",
                  file=sys.stderr)
            sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    checkout = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    build_dir = os.path.join(os.path.abspath(target), f"bench_e2e-{checkout}")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        # Configuring an existing tree takes a fraction of a second and
        # repairs one an interrupted first run left half-configured.
        subprocess.run(["cmake", "-S", ROOT, "-B", build_dir,
                        "-DCMAKE_PROJECT_INCLUDE=" +
                        os.path.join(HERE, "inject.cmake")],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "bench_e2e", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        sys.exit(1)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    build_dir = build()
    cmd = [os.path.join(build_dir, "bench_e2e")]
    if args.self_test:
        cmd.append("--self-test")
    else:
        name = args.workload
        cmd += ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
        if args.trace:
            cmd += ["--results",
                    os.path.join(build_dir, f"e2e_{name}_trace.json"),
                    "--trace",
                    os.path.join(build_dir, f"e2e_trace_{name}.json")]
        else:
            cmd += ["--results", os.path.join(build_dir, f"e2e_{name}.json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        sys.exit(1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
