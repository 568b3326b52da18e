"""zetaprog benchmark: CLI experiments in a closed loop, from outside the package.

    python3 bench/run.py --workload moment_sweep --seed 1 --seconds 20 --trace 0

One client runs the workload's seeded experiments one after another, each a
`zetaprog.cli.main(argv)` call in this process writing its JSON report and
CSV into a scratch directory under bench/out, and checks every report
(checks.py).  --seconds sets how many experiments a run makes, in whole
rounds, from the workload's mean experiment time, so that the work of a run
is fixed for a seed.  Set-up is measured apart, in fresh interpreters
(probe.py), and the measured loop is warm: the sum of the two is a cold CLI
call.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed prefix of
the same experiments twice, untraced and then traced (spans.py), and prints
the per-layer metrics, the trace's coverage of experiment time and its
overhead.  The last line of standard output is the result as JSON; a run
record and, when traced, the spans are written under bench/out.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from itertools import islice

# Neither imports numpy, which must wait for cap_threads().
import checks
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_EXPERIMENTS = 40    # so that ten experiments lie beyond the tail percentile
TAIL_PERCENTILE = 75
SETUP_PROBES = 5
TABLE_PROBES = 3
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> dict:
    """Set the BLAS/OpenMP thread variables to one thread; numpy reads them
    once, at import, so this runs before anything imports it.  The loop has
    one client, and on a shared machine BLAS worker threads that wait for a
    busy core made the same experiment vary up to twofold between runs."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric_units(trace: int) -> dict:
    """The metrics BENCHMARK.json declares for this kind of run, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics.  The experiment times cluster by kind, and a single
    order statistic at the median or p75 jumps across the gaps between the
    clusters when a seed moves one experiment past another."""
    import numpy as np
    from scipy.special import betainc
    ordered = np.sort(values)
    n = len(ordered)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ ordered)


class Runner:
    """Runs experiments through the CLI and checks their outputs."""

    def __init__(self, cli, workdir, reference):
        self.cli = cli
        self.json_path = os.path.join(workdir, "report.json")
        self.csv_path = os.path.join(workdir, "rows.csv")
        self.reference = reference
        self.warnings = 0
        self.failed = 0        # runs with at least one problem
        self.referenced = 0    # runs compared against a recorded reference
        self.failures = []     # (index, argv, problem)

    def call(self, argv) -> int:
        return self.cli.main(list(argv) + ["--json", self.json_path,
                                           "--csv", self.csv_path])

    def run(self, exp):
        """Time one experiment and check its outputs; return its seconds."""
        for path in (self.json_path, self.csv_path):
            if os.path.exists(path):
                os.remove(path)
        problems = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                rc = self.call(exp.argv)
            except SystemExit as exc:      # argparse rejected the arguments
                problems.append(f"exited {exc.code}")
            except Exception:              # recorded; the loop goes on
                problems.append("raised " + traceback.format_exc().strip().splitlines()[-1])
            else:
                if rc != 0:
                    problems.append(f"exit code {rc}")
            elapsed = time.perf_counter() - t0
        self.warnings += len(caught)
        if not problems:
            try:
                with open(self.json_path) as fh:
                    report = json.load(fh)
                problems = checks.check(exp, report, self.csv_path, self.reference)
                self.referenced += exp.key in self.reference
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        self.failed += bool(problems)
        self.failures.extend((exp.index, exp.key, p) for p in problems)
        return elapsed


def probe(args, count):
    """Median and raw values of `count` fresh-interpreter probes."""
    runs = []
    for _ in range(count):
        out = subprocess.run([sys.executable, os.path.join(BENCH, "probe.py")] + args,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"{args[0]} probe failed: {out.stderr.strip()}")
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    keys = runs[0].keys()
    return {k: statistics.median(r[k] for r in runs) for k in keys}, runs


def measure(runner, exps, count):
    """Closed loop over whole rounds of experiments until `count` are done."""
    times, keys, points, last_round = [], [], 0, 0
    for exp in exps:
        if len(times) >= count and exp.round != last_round:
            break
        last_round = exp.round
        times.append(runner.run(exp))
        keys.append(exp.key)
        points += exp.points
    return times, keys, points


def main(argv=None) -> int:
    args = parse_args(argv)
    thread_env = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "zetaprog", "__init__.py")):
        print(f"bench: no zetaprog package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mpmath
    import numpy as np
    import scipy

    import zetaprog
    import zetaprog.cli as cli
    from zetaprog import zeta as zmod

    import spans

    if os.path.dirname(os.path.abspath(zetaprog.__file__)) != os.path.join(SRC, "zetaprog"):
        print(f"bench: imported zetaprog from {zetaprog.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if zmod.RS_MIN_T != workloads.RS_MIN_T:
        # The inputs stay fixed so that commits compare; the engine split moved.
        print(f"bench: warning: RS_MIN_T is {zmod.RS_MIN_T}, the workloads were "
              f"sized for {workloads.RS_MIN_T}", file=sys.stderr)

    units = metric_units(args.trace)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    ref_path = os.path.join(BENCH, "reference", f"{args.workload}.json")
    runner = Runner(cli, workdir, checks.load_reference(ref_path))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "thread_env": thread_env,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__,
                     "zetaprog": zetaprog.__version__},
    }
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            selftest_rc = cli.main(["selftest", "--json", runner.json_path])
            warmup_rc = runner.call(workloads.WARMUP[args.workload])
        record.update(selftest_exit=selftest_rc, warmup_exit=warmup_rc)

        exps = workloads.experiments(args.workload, args.seed)
        if args.trace == 0:
            setup, setup_runs = probe(["setup", args.workload,
                                       os.path.join(workdir, "probe.json")], SETUP_PROBES)
            count = max(MIN_EXPERIMENTS,
                        round(args.seconds / workloads.EXPERIMENT_S[args.workload]))
            times, keys, points = measure(runner, exps, count)
            metrics = {
                "setup_s": setup["setup_s"],
                "experiment_s.p50": quantile(times, 0.5),
                "experiment_s.tail": quantile(times, TAIL_PERCENTILE / 100),
                "points_per_s": points / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record.update(setup_probes=setup_runs, tail_percentile=TAIL_PERCENTILE,
                          experiments=[[k, t] for k, t in zip(keys, times)])
        else:
            tables, table_runs = probe(["tables"], TABLE_PROBES)
            prefix = list(islice(exps, workloads.TRACE_PREFIX[args.workload]))
            tracer = spans.Tracer(zmod.RS_MIN_T)
            modules = [m for name, m in sorted(sys.modules.items())
                       if name == "zetaprog" or name.startswith("zetaprog.")]
            plain, traced = [], []
            for e in prefix:
                # Each experiment runs untraced and traced back to back, in
                # alternating order, so that drift in machine speed cancels
                # out of the overhead.
                for traced_now in ((False, True) if e.index % 2 == 0 else (True, False)):
                    if not traced_now:
                        plain.append(runner.run(e))
                        continue
                    tracer.install(modules, zetaprog.SmoothWindow)
                    tracer.begin(e.index)
                    try:
                        traced.append(runner.run(e))
                    finally:
                        tracer.end()
                        tracer.uninstall()
            times = traced
            layer = tracer.metrics(sum(traced))
            layer["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
            for k in ("import_s", "rs_table_s", "h_table_s", "w_table_s"):
                layer[f"setup.{k}"] = tables[k]
            metrics = dict(sorted(layer.items()))
            record.update(table_probes=table_runs, untraced_times_s=plain,
                          traced_times_s=traced, spans=len(tracer.spans))
            tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: measured but not declared "
                           f"{sorted(set(metrics) - set(units))}, declared but not measured "
                           f"{sorted(set(units) - set(metrics))}")
    attempted = len(times) if args.trace == 0 else 2 * len(times)
    failed = runner.failed
    correct = selftest_rc == 0 and warmup_rc == 0 and failed == 0
    record.update(attempted=attempted, failed=failed, failures=runner.failures,
                  warnings=runner.warnings,
                  reference_checked=runner.referenced)
    record["metrics"] = metrics
    with open(os.path.join(OUT, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for i, key, problem in runner.failures:
        print(f"FAIL experiment {i} [{key}]: {problem}")
    print(f"selftest exit {selftest_rc}; warm-up exit {warmup_rc}; experiments: {attempted}; "
          f"warnings: {runner.warnings}; reference-checked: {record['reference_checked']}")
    for k, v in metrics.items():
        print(f"  {k:<40} {v:.6g} {units[k]}")
    if args.trace == 0:
        print(f"  {'experiment_s.tail percentile':<40} p{TAIL_PERCENTILE} of {attempted}")
        print(f"  {'fail_frac':<40} {failed} of {attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
