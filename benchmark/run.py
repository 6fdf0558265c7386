"""prehomog benchmark: one workload per process, one caller in a closed loop.

Run from the root of a checkout:

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Every operation is `prehomog.cli.main(argv)` with `--json` and stdout
captured, and every output is checked against a reference that does not
come from the program (see workloads.py).  The workload's fixed list of
operations is one pass; passes repeat until --seconds have gone by.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run's context: seed,
size caps, environment, output digest.  README.md lists the metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 15
SIZE_UNITS = {"steps": "count", "terms_out": "count", "coeff_bits_max": "bit",
              "lines": "lines/call", "hit_ratio": "ratio", "calls": "count"}


def environment(prior_threads):
    cpu = "unknown"
    with contextlib.suppress(OSError), \
            open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "PREHOMOG_THREADS_prior": prior_threads}


def set_up(name, seed, workdir):
    """Import prehomog afresh, build the fixture generators (filling the
    Fixture cache) and write the seeded inputs."""
    for mod in [m for m in sys.modules
                if m == "prehomog" or m.startswith("prehomog.")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    cli = importlib.import_module("prehomog.cli")
    fixtures = importlib.import_module("prehomog.fixtures")
    ops = workloads.build(name, seed, fixtures, workdir)
    return cli, ops, time.perf_counter() - t0


def run_pass(cli, ops):
    """(op times, failure messages, sha256 of the outputs) of one pass."""
    times, failures, digest = [], [], hashlib.sha256()
    for op in ops:
        buf = io.StringIO()
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(op.argv)
        except SystemExit as exc:       # argparse rejected the arguments
            code = exc.code
        except Exception as exc:        # any other escape is a failure
            problem = f"raised {exc!r}"
        times.append(time.perf_counter() - t0)
        text = buf.getvalue()
        digest.update(text.encode())
        problem = problem or op.check(code, text)
        if problem:
            failures.append(f"{op.label}: {problem}")
    return times, failures, digest.hexdigest()


def tail(values):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by nearest rank; the maximum when there are too
    few samples for any."""
    v = sorted(values)
    for p in range(99, 0, -1):
        rank = math.ceil(p * len(v) / 100)
        if len(v) - rank >= 10:
            return p, v[rank - 1]
    return 100, v[-1]


def measure(args, workdir, prior_threads):
    setups = []
    for _ in range(SETUP_REPS):
        cli, ops, dt = set_up(args.workload, args.seed, workdir)
        setups.append(dt)
    gc.collect()

    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(run_pass(cli, ops))
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                got = run_pass(cli, ops)
            finally:
                tracer.remove()
            traced.append((got, tracer.counts(), dict(tracer.self_s)))
        if time.perf_counter() >= deadline:
            break

    runs = plain + [t[0] for t in traced]
    failures = [f for _, fs, _ in runs for f in fs]
    attempted = len(ops) * len(runs)
    op_med = [statistics.median(times[i] for times, _, _ in plain)
              for i in range(len(ops))]
    wall = statistics.median(sum(times) for times, _, _ in plain)
    pct, tail_s = tail(op_med)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "operations": len(ops), "passes": len(plain),
        "traced_passes": len(traced), "op_tail_percentile": pct,
        "op_tail_samples": len(op_med),
        "failed_share": len(failures) / attempted,
        "output_sha256": runs[0][2],
        "outputs_repeat": len({d for _, _, d in runs}) == 1,
        "caps": workloads.CAPS, "environment": environment(prior_threads),
        "failures": failures[:5],
    }
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "op_p50_s": (statistics.median(op_med), "s"),
            "op_tail_s": (tail_s, "s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
        }
    else:
        counts = traced[0][1]
        context["counts_repeat"] = all(c == counts for _, c, _ in traced)
        metrics = {name: (n, SIZE_UNITS[name.rsplit(".", 1)[1]])
                   for name, n in counts.items()}
        for name in traced[0][2]:
            metrics[f"{name}.self_s"] = (
                statistics.median(t[2][name] for t in traced), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(sum(t[0][0]) for t in traced) - wall, "s")
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps(context))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "prehomog" / "__init__.py").is_file():
        print(f"error: no prehomog sources at {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    prior_threads = os.environ.pop("PREHOMOG_THREADS", None)
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".inputs-", dir=HERE))
    try:
        return measure(args, workdir, prior_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
