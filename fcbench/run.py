#!/usr/bin/env python3
"""Benchmark of fouriercat: one seeded workload, run for a fixed time.

Run from the root of a fouriercat checkout:

    python3 fcbench/run.py --workload gate-suite --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the current directory and called
from outside, through its public functions and ``fouriercat.cli.main``.
One client runs rounds of the workload's operations back to back: a cold
first round, then warm rounds until ``--seconds`` have passed.  Only the
calls into fouriercat are timed; every output is then checked against the
independent numpy reference in ``reference.py``.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a run that alternates untraced and traced warm rounds.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--quick`` runs one small round as a
self-check; its figures are not comparable with full runs.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): on a shared 2-vCPU machine a second
# thread makes every dense timing depend on the neighbours' load.  Set
# before numpy is imported; children inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.abspath("src")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
OUT = os.path.abspath(".fcbench_out")

SETUP_LAUNCHES = 5
SETUP_CODE = (
    "import fouriercat as fc\n"
    "for g in (fc.pauli_group(), fc.quaternion_group()):\n"
    "    fc.build_fourier_transform(g, fc.irrep_table(g))\n"
)
MIN_WARM_ROUNDS = 3  # untraced; a traced run needs this many of each kind
# first_round_s is the median over the run's own first round and those of
# fresh processes: at least two, and as many as fit in this share of the run
# (about one second of start-up and checks each).  They and the set-up
# launches are spread evenly over the run, so one slow moment of a drifting
# machine does not decide a median.
FIRST_ROUND_SHARE = 0.35


class BenchError(Exception):
    pass


def ref_kernel():
    """Median time of a fixed, seeded numpy kernel: a drift gauge for the machine.

    It runs in a fresh process (``--ref-kernel``), so that its arrays do not
    count towards the run's peak_rss_mb.  One dense part (eigh and matmul of a 384 x 384 complex matrix, BLAS-bound)
    and one small-matrix part (200 eighs of 8 x 8 matrices, interpreter-bound,
    like the analytic loss route), so that both kinds of drift show.
    """
    rng = np.random.default_rng(20251018)
    a = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
    herm = a + a.conj().T
    small = rng.standard_normal((200, 8, 8)) + 1j * rng.standard_normal((200, 8, 8))
    small = small + np.conj(np.swapaxes(small, 1, 2))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.linalg.eigh(herm)
        a @ a
        for m in small:
            np.linalg.eigh(m)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def ref_kernel_child():
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--ref-kernel"],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"reference kernel process failed: {proc.stderr[-500:]}")
    return float(proc.stdout)


def setup_launch():
    """Wall time of a fresh process that imports fouriercat, builds the d8
    and q8 groups with their Fourier transforms, and exits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def import_fouriercat():
    if not os.path.isfile(os.path.join(SRC, "fouriercat", "__init__.py")):
        raise BenchError("no src/fouriercat here: run from the root of a fouriercat checkout")
    sys.path.insert(0, SRC)
    import fouriercat
    import fouriercat.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(fouriercat.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported fouriercat from {fouriercat.__file__}, not {SRC}")
    return fouriercat


class Tally:
    """Operation counts and the fault register of a run."""

    def __init__(self):
        self.attempted = 0
        self.faults = {}  # (fault, op name) -> count
        self.unexplained = []  # (op name, detail)

    @property
    def failed(self):
        return sum(self.faults.values())

    def record(self, op, out, err, ctx):
        self.attempted += 1
        if err is None:
            try:
                op.check(out, ctx)
                return
            except workloads.Failed as exc:
                fault, detail = exc.fault, str(exc)
        else:
            fault = workloads.classify_error(err)
            detail = f"{type(err).__name__}: {err}"
        if fault is None:
            self.unexplained.append((op.name, detail))
        else:
            key = (fault, op.name)
            self.faults[key] = self.faults.get(key, 0) + 1

    def merge(self, child):
        """Add the operations of a first-round process."""
        self.attempted += child["attempted"]
        for fault, name, count in child["faults"]:
            self.faults[(fault, name)] = self.faults.get((fault, name), 0) + count
        self.unexplained += [tuple(u) for u in child["unexplained"]]


def run_round(ops, tally, tracer=None):
    """Run one round; return the seconds spent inside fouriercat calls and
    the bytes the CLI wrote."""
    gc.collect()
    gc.disable()
    ctx = {}
    timed = 0.0
    cli_bytes = 0
    try:
        for op in ops:
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out, err = op.call(ctx), None
            except Exception as exc:  # a failed operation is tallied, not fatal
                out, err = None, exc
            timed += time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
            cli_bytes += getattr(out, "output_bytes", 0)
            tally.record(op, out, err, ctx)
    finally:
        gc.enable()
    return timed, cli_bytes


def first_round_child(args):
    """A fresh process that runs one round: a sample of first_round_s."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--first-round"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"first-round process failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    if argv is None and sys.argv[1:] == ["--ref-kernel"]:
        print(ref_kernel())
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one small round at reduced cutoffs and grids; not comparable")
    parser.add_argument("--first-round", action="store_true",
                        help="internal: run one round in this fresh process and report it")
    args = parser.parse_args(argv)

    try:
        fc = import_fouriercat()
    except BenchError as exc:
        print(f"fcbench: {exc}", file=sys.stderr)
        return 2

    scratch = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return measure(args, fc, scratch)
    except BenchError as exc:
        print(f"fcbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, fc, scratch):
    ops = workloads.build(args.workload, args.seed, fc, scratch, quick=args.quick)
    tally = Tally()
    if args.first_round:
        first, _ = run_round(ops, tally)
        print(json.dumps({"first_round_s": first, "attempted": tally.attempted,
                          "faults": [[f, n, c] for (f, n), c in tally.faults.items()],
                          "unexplained": tally.unexplained}))
        return 0

    full_e2e = not args.trace and not args.quick
    kernel = [ref_kernel_child()]
    tracer = tracing.Tracer(fc) if args.trace else None
    min_rounds = 1 if args.quick else MIN_WARM_ROUNDS
    if full_e2e:
        setup_launch()  # unmeasured: fills the bytecode and file caches
    # (share of the run after which it is due, kind) of each fresh process
    schedule = []
    setups = []

    start = time.perf_counter()
    firsts = [run_round(ops, tally)[0]]
    if full_e2e:
        children = max(2, int(FIRST_ROUND_SHARE * args.seconds / (firsts[0] + 1.0)))
        schedule = sorted(
            [(i / SETUP_LAUNCHES, "setup") for i in range(SETUP_LAUNCHES)]
            + [((i + 1) / (children + 1), "first") for i in range(children)]
        )
    plain, traced, per_round, span_rounds = [], [], [], []
    while True:
        elapsed = time.perf_counter() - start
        if schedule and elapsed >= schedule[0][0] * args.seconds:
            if schedule.pop(0)[1] == "setup":
                setups.append(setup_launch())
            else:
                child = first_round_child(args)
                firsts.append(child["first_round_s"])
                tally.merge(child)
            continue
        enough = len(plain) >= min_rounds and (not tracer or len(traced) >= min_rounds)
        if enough and not schedule and elapsed >= args.seconds:
            break
        if tracer and len(plain) > len(traced):
            tracer.install()
            try:
                timed, cli_bytes = run_round(ops, tally, tracer)
            finally:
                tracer.uninstall()
            traced.append(timed)
            spans = tracer.take_round()
            per_round.append(tracing.aggregate(spans))
            per_round[-1]["cli.output_bytes"] = cli_bytes
            span_rounds.append((len(plain) + len(traced), spans))
        else:
            plain.append(run_round(ops, tally)[0])
    kernel.append(ref_kernel_child())

    rounds = len(firsts) + len(plain) + len(traced)
    for (fault, name), count in sorted(tally.faults.items()):
        print(f"fault {fault}: {count}/{rounds} rounds: {name} ({workloads.FAULTS[fault]})")
    for name, detail in tally.unexplained[:20]:
        print(f"UNEXPLAINED failure: {name}: {detail}")
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "ops_per_round": len(ops), "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "ref_kernel_s": kernel, "quick": args.quick, "first_round_s": firsts,
        "warm_round_s": plain, "setup_s": setups,
    }

    if tracer:
        with open(SPEC, encoding="utf-8") as fh:
            per_layer = json.load(fh)["per_layer"]
        metrics = {}
        for m in per_layer:
            vals = [r.get(m["name"], 0.0) for r in per_round]
            metrics[m["name"]] = {"value": statistics.median(vals), "unit": m["unit"]}
        metrics["trace.round_s"]["value"] = statistics.median(traced)
        # Each traced round follows an untraced one: pairing them cancels
        # machine drift slower than two rounds.
        metrics["trace.overhead_s"]["value"] = statistics.median(
            t - p for p, t in zip(plain, traced))
        metrics["machine.ref_kernel_s"]["value"] = statistics.median(kernel)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracing.write_spans(path, span_rounds)
        info["spans_file"] = os.path.relpath(path)
        info["traced_round_s"] = traced
    else:
        metrics = {
            "round_s": {"value": statistics.median(plain), "unit": "s"},
            "first_round_s": {"value": statistics.median(firsts), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        if setups:
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print("info " + json.dumps(info))
    result = {
        "correct": not tally.unexplained,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.quick:
        result["comparable"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
