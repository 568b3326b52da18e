"""Set-up probe, run in a fresh interpreter by run.py.

    python3 bench/probe.py setup <workload> <json-path>
        import zetaprog.cli, then the workload's warm-up CLI call;
    python3 bench/probe.py tables
        import zetaprog.cli, then each lazy table's first public call and a
        repeat of it: zeta_critical_grid on an RS point (the RS Chebyshev
        fits), h_many (the H spline) and w_many (the W spline).

Prints one JSON object of seconds.  A table's cost is the first call minus
the repeat.
"""
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _first_minus_repeat(fn):
    t0 = time.perf_counter()
    fn()
    t1 = time.perf_counter()
    fn()
    t2 = time.perf_counter()
    return (t1 - t0) - (t2 - t1)


def main(mode, workload=None, json_path=None):
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import zetaprog.cli
    out = {"import_s": time.perf_counter() - t0}
    if mode == "setup":
        from workloads import WARMUP
        t1 = time.perf_counter()
        rc = zetaprog.cli.main(list(WARMUP[workload]) + ["--json", json_path])
        out["warmup_s"] = time.perf_counter() - t1
        out["setup_s"] = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"warm-up call exited {rc}")
    else:
        import numpy as np

        from zetaprog import h_many, w_many, zeta_critical_grid
        rs_point = np.array([2.0 * zetaprog.RS_MIN_T])
        out["rs_table_s"] = _first_minus_repeat(lambda: zeta_critical_grid(rs_point))
        out["h_table_s"] = _first_minus_repeat(lambda: h_many(np.array([5.0])))
        out["w_table_s"] = _first_minus_repeat(lambda: w_many(np.array([5.0])))
    print(json.dumps(out))


if __name__ == "__main__":
    main(*sys.argv[1:])
