"""pdf_ray benchmark entry point.

    python3 perfbench/run.py --workload skew_pages --seed 1 --seconds 30 --trace 0

Runs one workload in a fresh driver process (``driver.py``) under a hard
timeout, then kills whatever that process left running, removes the run's
output and Ray session directories, and prints the run's result as one
JSON object on the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md). A run that fails or times out prints
``"correct": false`` with every operation counted as failed, gives its
reason on standard error and exits 1. Without the ``pdf_ray`` package next
to this directory, or with a stale Ray cluster on the host, it prints no
result and exits 2 or 3.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

import procs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("skew_pages", "small_commit_resume")
# AF_UNIX paths are limited to 107 bytes; Ray puts its sockets at
# <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")


def _ray_temp_dir(run_dir: str) -> str:
    """Ray's temp dir: the run dir itself when Ray's socket paths under it
    fit (checkout paths up to about 28 characters), else a fresh directory
    under the system temp dir, removed with the run."""
    if len(run_dir) + RAY_SOCKET_SUFFIX <= 107:
        return run_dir
    return tempfile.mkdtemp(prefix="pbray")


def _fail(reason: str) -> int:
    print(f"perfbench: run failed: {reason}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--num-cpus", type=int, default=2, help="Ray logical CPUs")
    p.add_argument("--actors", type=int, default=1, help="extraction actor pool size")
    p.add_argument("--batch-size", type=int, default=64, help="docs per extraction batch")
    p.add_argument("--setups", type=int, default=3, help="set-ups per run; setup_s is their median")
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--timeout", type=float, default=160.0, help="hard limit for the driver, seconds")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "pdf_ray", "__init__.py")):
        print(f"perfbench: no pdf_ray package in {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    stale = procs.stale_ray_daemons()
    if stale:
        for pid, cmd in stale:
            print(f"perfbench: stale Ray process {pid}: {cmd}", file=sys.stderr)
        print("perfbench: refusing to start; stop it first (ray stop --force)", file=sys.stderr)
        return 3

    signal.signal(signal.SIGTERM, _terminate)
    run_dir = os.path.join(ROOT, ".pbrun", str(os.getpid()))  # short: see _ray_temp_dir
    os.makedirs(run_dir)
    ray_dir = _ray_temp_dir(run_dir)
    cmd = [
        sys.executable,
        os.path.join(HERE, "driver.py"),
        *("--workload", args.workload, "--seed", str(args.seed)),
        *("--seconds", str(args.seconds), "--trace", str(args.trace)),
        *("--num-cpus", str(args.num_cpus), "--actors", str(args.actors)),
        *("--batch-size", str(args.batch_size)),
        *("--setups", str(args.setups if not args.trace else 1), "--scale", args.scale),
        *("--run-dir", run_dir, "--ray-dir", ray_dir),
        *("--spans-dir", os.path.join(ROOT, ".perfbench_out")),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    reason = None
    try:
        out, _ = proc.communicate(timeout=args.timeout)
        if proc.returncode != 0:
            reason = f"driver exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        out, reason = "", f"timed out after {args.timeout:.0f} s; process tree killed"
    finally:
        procs.kill_tree(proc.pid, marker=ray_dir)
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))  # only if no other run uses it
        except OSError:
            pass
    if reason:
        return _fail(reason)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return _fail("driver printed no result")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
