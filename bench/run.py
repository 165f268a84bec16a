"""fglab benchmark: CLI workloads timed end to end, traced per layer, or swept by size.

Gated run (what BENCHMARK.json runs):

    python3 bench/run.py --workload spherical --seed 1 --seconds 25 --trace 0

A closed loop, one client: each operation is the workload's CLI command in a
fresh interpreter, started only after the previous one ended, until
``--seconds`` have passed.  Set-up probes (interpreter start plus
``import fglab.cli``) are interleaved with the operations in an order drawn
from ``--seed``; the workloads themselves are deterministic.  Every
operation's exit code and stdout are checked against the reference in
workloads.py, and a mismatch is counted as failed, never as a timing.

Times are reported at reference speed: between every two child processes the
benchmark runs reference_job(), a fixed piece of pure-Python work, and scales
the child's times by REFERENCE_S over the reference job's mean time just
before and after it.  On a shared machine whose speed drifts with its
neighbours' load, this keeps a run's figures comparable with another run's.

The last line of stdout is one JSON object: with ``--trace 0`` the end-to-end
metrics (medians over the run), with ``--trace 1`` the per-layer metrics of one
extra traced operation (see spans.py).

Scaling sweep (not gated):

    python3 bench/run.py --sweep [--large]

runs each family at 3-4 sizes, writes bench/out/BENCH_<family>.json and fails
if a size's stdout differs from bench/baseline/BENCH_<family>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from spans import TRACE_MARK, layer_metrics
from workloads import FAMILIES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BASELINE = BENCH / "baseline"
CLI_MAIN = "import sys; from fglab.cli import main; sys.exit(main())"
SETUP_PROBES = 9
SWEEP_REPS = 3  # untraced runs per sweep point
CHILD_TIMEOUT_S = 120  # a hung child is killed, so a run still ends within 180 s
# reference_job() wall seconds on an unloaded 2-vCPU x86-64 VM under Python 3.11.7.
REFERENCE_S = 0.075


@dataclass
class Op:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    trace: dict | None = None  # set by run_traced_op


def run_child(args, argv=()):
    """Run ``python3 <args> <argv>`` with src on the import path.

    os.wait4 gives this child's own CPU time and peak RSS.  A child still
    running after CHILD_TIMEOUT_S is killed and so fails its exit-code check.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args, *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    proc.stdout.close()
    proc.stderr.close()
    return Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
              proc.returncode, out, err[0])


def run_op(argv):
    return run_child(("-c", CLI_MAIN), argv)


def setup_probe():
    return run_child(("-c", "import fglab.cli"))


def run_traced_op(argv):
    """One operation under spans.py, with its trace taken off stderr."""
    op = run_child((str(BENCH / "spans.py"),), argv)
    lines = op.stderr.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith(TRACE_MARK):
        op.trace = json.loads(lines[-1][len(TRACE_MARK):])
        op.stderr = "\n".join(lines[:-1]).encode()
    return op


def problems(op, workload):
    """Reasons this operation differs from the workload's reference; empty if none."""
    out = []
    if op.exit_code != workload.exit_code:
        out.append(f"exit code {op.exit_code}, expected {workload.exit_code}")
    digest = hashlib.sha256(op.stdout).hexdigest()
    if digest != workload.stdout_sha256:
        out.append(f"stdout sha256 {digest}, expected {workload.stdout_sha256}")
    if workload.must_contain.encode() not in op.stdout:
        out.append(f"stdout lacks {workload.must_contain!r}")
    if b"Traceback" in op.stderr:
        out.append("traceback on stderr")
    return out


def reference_job():
    """Fixed pure-Python work shaped like a series multiplication: Fraction
    products accumulated in a dict keyed by exponent tuples.  Returns its
    (wall, cpu) seconds, which track how fast this machine runs such code now."""
    wall, cpu = time.perf_counter(), time.process_time()
    terms = {}
    for i in range(1, 3000):
        key = (i % 13, i % 7, i % 5)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i % 31 + 1, i % 97 + 1)
    items = sorted(terms.items())
    out = {}
    for k1, c1 in items:
        for k2, c2 in items[:32]:
            e = tuple(a + b for a, b in zip(k1, k2))
            out[e] = out.get(e, 0) + c1 * c2
    return time.perf_counter() - wall, time.process_time() - cpu


@dataclass
class Timed:
    """A child process and the scale factors measured on either side of it."""

    op: Op
    wall_scale: float
    cpu_scale: float

    @property
    def wall_s(self):
        return self.op.wall_s * self.wall_scale

    @property
    def cpu_s(self):
        return self.op.cpu_s * self.cpu_scale


class Scaler:
    """Runs reference_job() between child processes and scales each child by it."""

    def __init__(self):
        self.last = reference_job()

    def run(self, job, *args):
        before = self.last
        op = job(*args)
        self.last = reference_job()
        return Timed(op, 2 * REFERENCE_S / (before[0] + self.last[0]),
                     2 * REFERENCE_S / (before[1] + self.last[1]))


def closed_loop(scaler, workload, seed, seconds):
    """Operations back to back for ``seconds``, set-up probes interleaved by seed."""
    rng = random.Random(seed)
    good, failures, setup = [], [], []
    probes_left = SETUP_PROBES
    start = time.perf_counter()
    while True:
        for _ in range(min(probes_left, rng.randint(0, 2))):
            setup.append(scaler.run(setup_probe))
            probes_left -= 1
        t = scaler.run(run_op, workload.argv)
        why = problems(t.op, workload)
        if why:
            failures.append(why)
        else:
            good.append(t)
        walls = [g.op.wall_s for g in good] or [t.op.wall_s]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    for _ in range(probes_left):
        setup.append(scaler.run(setup_probe))
    return good, failures, setup


def metric(value, unit):
    return {"value": value, "unit": unit}


def gated_run(workload, seed, seconds, trace):
    run_child(("-c", "import fglab.cli"))  # fills src/**/__pycache__ before timing
    scaler = Scaler()
    good, failures, setup = closed_loop(scaler, workload, seed, seconds)
    attempted = len(good) + len(failures)
    for why in failures[:3]:
        print(f"failed operation: {'; '.join(why)}", file=sys.stderr)
    metrics = {}
    if good:
        print(f"{workload.name}: seed {seed}, {len(good)} operations ok, {len(failures)} failed; "
              f"unscaled median wall {statistics.median(g.op.wall_s for g in good):.4f} s; "
              f"reference job took {statistics.median(1 / g.wall_scale for g in good):.3f}x "
              f"REFERENCE_S", file=sys.stderr)
        wall = statistics.median(g.wall_s for g in good)
        if trace:
            attempted += 1
            metrics = traced_run(workload, scaler, wall, failures)
        else:
            metrics = {
                "wall_s": metric(wall, "s"),
                "cpu_s": metric(statistics.median(g.cpu_s for g in good), "s"),
                "setup_s": metric(statistics.median(t.wall_s for t in setup), "s"),
                "peak_rss_mb": metric(statistics.median(g.op.peak_rss_mb for g in good), "MB"),
            }
    return {"correct": not failures and bool(good), "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def traced_run(workload, scaler, untraced_wall_s, failures):
    """One operation under spans.py: its per-layer metrics, or {} after adding to failures."""
    traced = scaler.run(run_traced_op, workload.argv)
    op, tr = traced.op, traced.op.trace
    why = problems(op, workload)
    if tr is None:
        why.append("traced run wrote no trace")
    elif tr["root_s"] > tr["main_s"]:
        why.append(f"root spans {tr['root_s']:.6f} s exceed the traced run's {tr['main_s']:.6f} s")
    if why:
        failures.append(why)
        return {}
    print_layers(tr, op.wall_s)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}.json").write_text(json.dumps(tr) + "\n")
    return layer_metrics(tr, traced, untraced_wall_s)


def print_layers(trace, wall_s):
    """Self time per span name, largest first, as a share of the traced wall time."""
    rows = sorted(trace["summary"].items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'span':32} {'calls':>7} {'self_s':>9} {'total_s':>9} {'self%':>6}", file=sys.stderr)
    for name, row in rows:
        print(f"{name:32} {row['calls']:7d} {row['self_s']:9.4f} {row['total_s']:9.4f} "
              f"{100 * row['self_s'] / wall_s:6.1f}", file=sys.stderr)


def sweep(large):
    """Scaling curves: scaled medians and the per-layer trace at each size."""
    OUT.mkdir(exist_ok=True)
    mismatched = []
    scaler = Scaler()
    for fam in FAMILIES.values():
        baseline = {}
        base_file = BASELINE / f"BENCH_{fam.name}.json"
        if base_file.exists():
            baseline = {p["size"]: p["stdout_sha256"]
                        for p in json.loads(base_file.read_text())["points"]}
        points = []
        for size in fam.sizes + (fam.large_sizes if large else ()):
            argv = fam.argv(size)
            runs = [scaler.run(run_op, argv) for _ in range(SWEEP_REPS)]
            traced = scaler.run(run_traced_op, argv)
            tr = traced.op.trace
            ops = [t.op for t in runs] + [traced.op]
            digests = {hashlib.sha256(o.stdout).hexdigest() for o in ops}
            if len(digests) != 1 or any(o.exit_code != 0 for o in ops) or tr is None:
                mismatched.append(f"{fam.name} {size}: unstable or failing output")
                continue
            digest = digests.pop()
            if size in baseline and baseline[size] != digest:
                mismatched.append(f"{fam.name} {size}: stdout sha256 {digest} "
                                  f"differs from baseline {baseline[size]}")
            wall = statistics.median(t.wall_s for t in runs)
            points.append({
                "size": size,
                "argv": list(argv),
                "reps": SWEEP_REPS,
                "wall_s": wall,
                "cpu_s": statistics.median(t.cpu_s for t in runs),
                "unscaled_wall_s": statistics.median(t.op.wall_s for t in runs),
                "peak_rss_mb": statistics.median(t.op.peak_rss_mb for t in runs),
                "stdout_sha256": digest,
                "layers": {k: v["value"] for k, v in
                           layer_metrics(tr, traced, wall).items()},
            })
            print(f"{fam.name} {size}: wall {wall:.3f} s at reference speed", file=sys.stderr)
        record = {
            "family": fam.name,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
            "reference_s": REFERENCE_S,
            "points": points,
        }
        (OUT / f"BENCH_{fam.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    for m in mismatched:
        print(f"output identity: {m}", file=sys.stderr)
    return 1 if mismatched else 0


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return res.stdout.strip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sweep", action="store_true", help="run the scaling sweep instead")
    p.add_argument("--large", action="store_true", help="add the sizes beyond ~15 s")
    args = p.parse_args(argv)
    if not (SRC / "fglab" / "cli.py").is_file():
        print(f"no fglab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # One CPU for this process and every child, so that the reference job
    # measures the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.sweep:
        return sweep(args.large)
    if args.workload is None:
        p.error("--workload is required unless --sweep is given")
    print(json.dumps(gated_run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
