#!/usr/bin/env python3
"""Paper-workload benchmark: build the simulator and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload short-sweep --seed 1 --seconds 35 --trace 0

The first run configures and builds the repository's library (its own
CMake project, Release) and lf_perfbench under .bench_build/; later runs
only rebuild what changed. Build output goes to stderr. The program's
report goes to stdout and ends with one JSON line (see README.md).

At the default seed the rows are checked against the fingerprints in
perfbench/expected/; any other seed is checked for determinism only
and its fingerprints are written to .bench_build/fingerprints/ so two
builds can be compared. --expect FILE checks against a given file
instead; --write-expected refreshes the committed file.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = ("paper-registry", "short-sweep")
DEFAULT_SEED = 1
BUILD_TYPE = "Release"

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
BUILD_DIR = ROOT / ".bench_build"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_quiet(command):
    """Run a build step, its output on stderr; raise on failure."""
    subprocess.run(command, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    """Build liblf with the repository's CMake project, then lf_perfbench."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"{ROOT} holds no repository to build "
                           "(run from the repository root)")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    repo_build = BUILD_DIR / "repo"
    bench_build = BUILD_DIR / "perfbench"
    if not (repo_build / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(ROOT), "-B", str(repo_build),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    run_quiet(["cmake", "--build", str(repo_build), "--target", "lf",
               "-j", jobs])
    if not (bench_build / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(bench_build),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                   f"-DLF_BUILD_DIR={repo_build}"])
    run_quiet(["cmake", "--build", str(bench_build), "-j", jobs])
    return bench_build / "lf_perfbench", repo_build / "liblf.a"


def library_has_lto(library):
    """True when the archive holds LTO bytecode (GCC or clang)."""
    data = library.read_bytes()
    return b".gnu.lto_" in data or b"BC\xc0\xde" in data


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_sha256():
    """Digest of everything the benchmark builds from, so a comparison
    across checkouts without git history can still tell builds apart."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect", help="fingerprint file to check "
                        "against (default: the committed one at the "
                        "default seed, none otherwise)")
    parser.add_argument("--write-expected", action="store_true",
                        help="refresh perfbench/expected/ from this run")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        program, library = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    expected = BENCH_DIR / "expected" / f"{args.workload}.txt"
    expect = args.expect
    if expect is None and args.seed == DEFAULT_SEED and not args.write_expected:
        expect = str(expected.relative_to(ROOT))
    fingerprints = (BUILD_DIR / "fingerprints" /
                    f"{args.workload}-seed{args.seed}-trace{args.trace}.txt")
    fingerprints.parent.mkdir(parents=True, exist_ok=True)
    work = BUILD_DIR / "work" / f"{args.workload}-{os.getpid()}"

    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--fingerprints-out", str(fingerprints.relative_to(ROOT)),
               "--work-dir", str(work.relative_to(ROOT)),
               "--build-type", BUILD_TYPE,
               "--lto", "1" if library_has_lto(library) else "0",
               "--commit", git_commit(),
               "--source-sha256", source_sha256()]
    if expect:
        command += ["--expect", expect]
    status = subprocess.run(command, cwd=ROOT).returncode
    if status == 0 and args.write_expected:
        if args.seed != DEFAULT_SEED:
            log("--write-expected needs the default seed")
            return 1
        expected.parent.mkdir(exist_ok=True)
        shutil.copyfile(fingerprints, expected)
        log(f"wrote {expected.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
