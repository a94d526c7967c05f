#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload tpcc-write --seed 1 --seconds 30 --trace 0

The Go build cache, the binary and the run's outputs (report, spans, CPU
profile) all live under the build directory: $CARGO_TARGET_DIR when set,
else .bench_build, relative to the current directory. Nothing is read or
written outside the current directory. The last line of standard output is
the JSON result; build errors and failed checks exit non-zero without one.
"""

import ctypes
import os
import signal
import subprocess
import sys

# A run measures about --seconds, plus set-up; the traced write run (two
# rounds) is the longest. Kill a run that hangs rather than wait forever.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 800
PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Ask the kernel to SIGKILL this process when its parent exits."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass  # not Linux: the process-group kill below still applies


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),  # go's env file and telemetry
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-out", os.path.join(build, "perfbench-out")] + sys.argv[1:]
    # Its own process group, so stopping it stops the run's child processes
    # too; and it dies with this script, even if this script is killed.
    proc = subprocess.Popen(args, cwd=root, env=env, start_new_session=True,
                            preexec_fn=die_with_parent)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
