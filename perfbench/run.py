#!/usr/bin/env python3
"""Builds and runs DynView's served-query benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload served_point --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --test     # the benchmark's own helper tests

The first call configures and builds the library from src/ and the
benchmark program (perfbench/CMakeLists.txt) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. Build output goes
to standard error, so the last line of standard output is the benchmark's
result object.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    steps = []
    # A configure that failed leaves a cache but no Makefile: configure again.
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", SOURCE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, target)


def commit_id():
    """The git commit of the checkout, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "not a git checkout; sources sha256 " + digest.hexdigest()[:16]


def main(argv):
    if argv == ["--test"]:
        binary = build("perfbench_helpers_test")
        if binary is None or subprocess.run([binary]).returncode != 0:
            return 1
        test = os.path.join(SOURCE, "tests", "steadiness_test.py")
        return subprocess.run([sys.executable, test]).returncode
    binary = build("dynview_bench")
    if binary is None:
        return 1
    cmd = [binary] + argv + ["--out-dir", build_dir(), "--commit", commit_id()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
