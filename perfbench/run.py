#!/usr/bin/env python3
"""Build SCAF and the benchmark (driver, yardstick) from source, then run the driver.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 10 --trace 0

All arguments go to the driver (see perfbench/README.md). The build goes to
dune's usual _build directory inside the checkout, with dune's shared cache
disabled so nothing is written outside it. Build output goes to standard
error; the driver's last line of standard output is the JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys

TARGETS = ["./bin/scaf_eval.exe", "./perfbench/driver.exe", "./perfbench/yardstick.exe"]

# Set-up and the last pass of a window take well under this on top of
# --seconds; a run that has not finished by then is hung.
WATCHDOG_S = 140


def seconds_arg():
    args = sys.argv[1:]
    for flag, value in zip(args, args[1:]):
        if flag == "--seconds":
            try:
                return float(value)
            except ValueError:
                break
    return 60.0


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    root = os.getcwd()
    dune = dune_command()
    if dune is None:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet"] + TARGETS,
        cwd=root,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed; run this from the root of a full checkout",
              file=sys.stderr)
        return 2
    # One core for the driver and the daemon it spawns: a closed-loop
    # request then hands over between two processes on the same core, so
    # timings do not depend on where the scheduler happened to place them.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    exe = os.path.join("_build", "default", "bin", "scaf_eval.exe")
    driver = os.path.join(root, "_build", "default", "perfbench", "driver.exe")
    # The driver and the daemon it spawns get their own process group, so
    # a hung run can be stopped whole: the driver stops the daemon itself
    # on every normal exit path.
    proc = subprocess.Popen([driver, "--exe", exe] + sys.argv[1:], cwd=root,
                            start_new_session=True)
    try:
        return proc.wait(timeout=seconds_arg() + WATCHDOG_S)
    except subprocess.TimeoutExpired:
        print("run.py: driver overran its window; stopping it", file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
