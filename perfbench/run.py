"""Benchmark of the splitannulus package.

    python3 perfbench/run.py --workload {lens,action,curve,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  One process
runs one workload: fixed anchor jobs first (untimed), then seeded cycles
of jobs for about ``--seconds`` seconds, then the output checks.  Times
are scaled to the machine's reference speed by a fixed kernel timed
between every two cycles (see ``ReferenceKernel``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``; with
``--trace 1`` every job also runs a second time under the per-layer
tracer, and the metrics are the ``per_layer`` ones.  The line before it
is a detail record (environment, quartiles, probes, anchors).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 9
# Seconds the reference kernel takes on the machine the benchmark was
# defined on (2 vCPUs, Python 3.11, numpy 2.4); see refkernel.py.
REFERENCE_S = 0.07


class BenchError(Exception):
    pass


def _import_package():
    pkg = ROOT / "src" / "splitannulus"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no splitannulus sources under {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import splitannulus

    if Path(splitannulus.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported {splitannulus.__file__}, not the checkout")
    return splitannulus


def _child_import_s():
    """Seconds a fresh interpreter takes to import the package."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import splitannulus; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def _metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _blas_threads():
    """OpenBLAS thread count of numpy's bundled BLAS, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "libscipy_openblas*.so"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _environment(seed):
    import numpy

    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = int(next(l for l in fh if l.startswith("Threads:")).split()[1])
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": _blas_threads(),
            "process_threads": threads, "seed": seed}


class ReferenceKernel:
    """A ``refkernel.py`` process; ``seconds()`` times one pass of its kernel.

    The speed of a shared machine drifts by up to 20% over minutes, and the
    kernel's time follows the drift.  The harness times it between every
    two cycles (and set-ups) and reports times scaled by
    ``REFERENCE_S / kernel seconds``, measured next to them: seconds on the
    machine at its reference speed.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("refkernel.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("reference kernel exited")
        return float(line)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]] if values else [None, None]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def _timed(job):
    """Run one job; return (raw, wall, cpu, error)."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        raw, error = job.run(), None
    except Exception as exc:  # a failing job is counted, the run goes on
        raw, error = None, f"{type(exc).__name__}: {exc}"
    return raw, time.perf_counter() - wall, time.process_time() - cpu, error


def _execute(job, tracer=None, traced_first=False):
    """One job, untimed for probes; twice (untraced and traced) with a tracer."""
    rec = {"job": job, "probe": job.probe, "error": None}
    if job.probe:
        raw, _, _, rec["error"] = _timed(job)
        rec["out"] = job.collect(raw) if rec["error"] is None else None
        return rec
    order = [False, True] if tracer is not None else [False]
    if traced_first:
        order.reverse()
    for traced in order:
        if traced:
            with tracer.job(job.name):
                raw, wall, cpu, error = _timed(job)
        else:
            raw, wall, cpu, error = _timed(job)
        key = "traced" if traced else "plain"
        rec[f"{key}_wall"], rec[f"{key}_cpu"] = wall, cpu
        rec[f"{key}_out"] = job.collect(raw) if error is None else None
        rec["error"] = rec["error"] or error
    rec["out"] = rec["plain_out"]
    if tracer is not None and rec["error"] is None and rec["traced_out"] != rec["out"]:
        rec["error"] = "traced output differs from untraced output"
    return rec


def _per_job(cycles, key, scales=None):
    """Per cycle: seconds per well-formed job, times the cycle's scale."""
    out = []
    for i, cycle in enumerate(cycles):
        timed = [r[key] for r in cycle if not r["probe"] and r.get(key) is not None]
        if timed:
            out.append(sum(timed) / len(timed) * (scales[i] if scales else 1.0))
    return out


def _share_ok(recs):
    return sum(r["ok"] for r in recs) / len(recs)


def _outcome(rec):
    """What a probe did: ``exit <code>`` or ``raised <exception>``."""
    if rec["error"] is not None:
        return rec["error"]
    out = rec["out"]
    return f"{out[0]} {out[1]}" if out[0] in ("exit", "raised") else f"exit {out[0]}"


def run(args):
    _import_package()
    import_s = time.perf_counter() - START

    import workloads
    from spans import Tracer

    make_cycle, make_anchors = workloads.WORKLOADS[args.workload]
    specs = _metric_specs(args.trace)
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    kernel = ReferenceKernel()
    try:
        kernel.seconds()  # warm-up
        kernel_s = [kernel.seconds()]

        def scale():
            """Reference over measured kernel time, around the last step."""
            kernel_s.append(kernel.seconds())
            return REFERENCE_S / ((kernel_s[-2] + kernel_s[-1]) / 2)

        # set-up: importing the package (in a fresh interpreter, as this
        # process can import it only once) and building the inputs of the
        # anchors and of the first cycle, repeated
        setup_raw, setup = [], []
        for _ in range(SETUP_REPS):
            t_import = _child_import_s()
            t0 = time.perf_counter()
            anchors = make_anchors(workdir)
            first = make_cycle(args.seed, 0, workdir)
            setup_raw.append(t_import + time.perf_counter() - t0)
            setup.append(setup_raw[-1] * scale())
        setup_s = statistics.median(setup)

        anchor_recs = [_execute(job) for job in anchors]
        tracer = Tracer() if args.trace else None
        cycles, scales = [], []
        kernel_s.append(kernel.seconds())
        t_loop = time.perf_counter()
        lengths = []
        while True:
            t_cycle = time.perf_counter()
            jobs = first if not cycles else make_cycle(args.seed, len(cycles), workdir)
            cycles.append([_execute(job, tracer, traced_first=len(cycles) % 2 == 1)
                           for job in jobs])
            scales.append(scale())
            lengths.append(time.perf_counter() - t_cycle)
            elapsed = time.perf_counter() - t_loop
            if elapsed + statistics.median(lengths) > args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # output checks, with their reference computations, after the timing
        for rec in anchor_recs + [r for c in cycles for r in c]:
            if rec["error"] is None:
                ok, err = rec["job"].check(rec["out"])
                rec["ok"], rec["err"] = bool(ok), None if err is None else float(err)
            else:
                rec["ok"], rec["err"] = False, None
        measured = [r for c in cycles for r in c]
        well_formed = [r for r in anchor_recs + measured if not r["probe"]]
        probes = [r for r in anchor_recs + measured if r["probe"]]
        failed = [r for r in well_formed if not r["ok"]]

        anchor_errs = [r["err"] for r in anchor_recs
                       if not r["probe"] and r["err"] is not None]
        if not anchor_errs:
            raise BenchError(f"no anchor job finished: {[r['error'] for r in anchor_recs]}")
        per_job = _per_job(cycles, "plain_wall", scales)
        values = {
            "setup_s": setup_s,
            "job_s": statistics.median(per_job),
            "cpu_s": statistics.median(_per_job(cycles, "plain_cpu", scales)),
            "peak_rss_mib": peak_rss_mib,
            "value_err": max(anchor_errs),
            # measured well-formed jobs and probes weigh one half each, so
            # that the value does not depend on how many cycles fit a run
            "pass_ratio": statistics.mean(
                [_share_ok([r for r in measured if not r["probe"]])]
                + ([_share_ok(probes)] if probes else [])),
        }
        if tracer is not None:
            values = tracer.layer_metrics()
            values["trace.overhead"] = (
                statistics.median(_per_job(cycles, "traced_wall", scales))
                / statistics.median(per_job) - 1.0)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")

        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": _environment(args.seed),
            "cycles": len(cycles), "jobs": sum(not r["probe"] for r in measured),
            "job_s_quartiles": _quartiles(per_job),
            "unscaled": {"job_s": statistics.median(_per_job(cycles, "plain_wall")),
                         "cpu_s": statistics.median(_per_job(cycles, "plain_cpu")),
                         "setup_s": statistics.median(setup_raw)},
            "kernel_s_quartiles": _quartiles(kernel_s),
            "import_s": import_s, "setup_reps_s": setup,
            "anchors": [{"job": r["job"].name, "ok": r["ok"], "err": r["err"]}
                        for r in anchor_recs],
            "seeded_max_err": max((r["err"] for r in measured
                                   if not r["probe"] and r["err"] is not None),
                                  default=None),
            "probes": {"attempted": len(probes),
                       "passed": sum(r["ok"] for r in probes),
                       "outcomes": sorted({f"{r['job'].name} -> {_outcome(r)}"
                                           for r in probes})},
            "failures": [f"{r['job'].name}: {r['error'] or 'output check failed'}"
                         for r in failed][:10],
        }
    finally:
        kernel.close()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(well_formed),
        "failed": len(failed),
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["lens", "action", "curve", "verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
