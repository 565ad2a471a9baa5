"""toqc benchmark: one closed-loop client, one op at a time, in one process.

Usage (from the repository root)::

    python3 bench/run.py --workload shoot-su2 --seed 4 --seconds 40 --trace 0
    python3 bench/run.py --workload cli-glc --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --compare bench/out/A.json bench/out/B.json

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs each instance untraced and then traced, reports per-layer numbers per
traced op, the tracing overhead, and checks that both answer records agree.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Answer records (T, residual,
n_starts, nfev, verdict per op) are written to ``bench/out/``; ``--compare``
flags any change of T above 1e-9 relative, or of verdict or pass/fail,
between two of them.
"""

import time

T0 = time.perf_counter()   # set-up time is counted from here

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:          # before numpy is imported, here and in children
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RTOL_T = 1e-9
SETUP_PROBES = 2           # extra cold set-ups in child processes
CAL_REF_S = 0.2            # time of one calibration block on the reference host
CAL_ITERATIONS = 6000
CLI_PROBES = 3             # interpreter / import timings in the traced cli run

END_TO_END = {"latency_s.p50": "ref_s", "ops_per_s": "1/ref_s", "cpu_s_per_op": "ref_s",
              "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> (tracer bucket, field); values are per traced op
_LAYER_FIELDS = {
    "brachistochrone._coupled_flow": ("calls", "cells", "self_s"),
    "brachistochrone._expm_step": ("calls", "self_s"),
    "brachistochrone.least_squares": ("calls", "nfev", "self_s"),
    "brachistochrone._single_start": ("calls", "converged_frac", "self_s"),
    "brachistochrone.solve_shooting": ("self_s",),
    "constraint_model.maximizer": ("calls", "self_s"),
    "dynamics.Protocol": ("self_s",),
    "constraint_model.bound_violation": ("calls", "self_s"),
    "dynamics.evolve_unitary": ("cells", "self_s"),
    "dynamics.evolve_costate": ("self_s",),
    "dynamics.conservation_report": ("self_s",),
    "sun_algebra.exp_op": ("calls", "self_s"),
    "sun_algebra.log_op": ("calls", "self_s"),
    "sun_algebra.inner": ("calls", "self_s"),
    "dynamics.protocol_from_function": ("self_s",),
    "brachistochrone.zermelo_solve": ("self_s",),
    "cli.main": ("self_s",),
    "arc_analysis.derive_singular_structure": ("self_s",),
    "arc_analysis.boundary_closure_study": ("self_s",),
    "singular_glc.glc_test": ("calls", "self_s"),
    "io_formats.dump_json": ("bytes", "self_s"),
}
PER_LAYER = {f"{layer}.{field}": (layer, field)
             for layer, fields in _LAYER_FIELDS.items() for field in fields}
PER_LAYER["brachistochrone._coupled_flow.dense_s"] = (
    "brachistochrone._coupled_flow.dense", "self_s")
RUN_LEVEL = ("cli.interpreter_s", "cli.import_s",
             "trace.op_s", "trace.unattributed_s", "trace.overhead_frac")


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("bytes"):
        return "B"
    return "s" if metric.endswith("_s") else "count"


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "toqc", "__init__.py")):
        sys.exit(f"error: no toqc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)


def environment() -> dict:
    """Versions, cores, BLAS threads and the identity of the code measured."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "toqc")
    for dirpath, _, files in sorted(os.walk(pkg)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "sympy": metadata.version("sympy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def attempt(fn, i):
    """Run one op; an exception is a failed op, not a crashed benchmark."""
    try:
        return fn(i), None
    except Exception as exc:  # noqa: BLE001 - the loop must go on and count it
        return None, f"raised {type(exc).__name__}: {exc}"


def judge(wl, i, out, error):
    problems, answer = ([error], {}) if error else wl.check(i, out)
    # nfev is only known to the tracer; a traced run fills it in
    return {"op": i, **wl.instance(i), **answer, "nfev": None, "ok": not problems,
            "problems": problems}


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Wall seconds of a fixed block of small numpy and Python work.

    The block uses no toqc code, so a change to toqc cannot change it; it
    only tracks how fast the host runs this kind of work right now.
    """
    import numpy as np

    h = np.array([[1.0, 0.3 - 0.2j, 0.1j], [0.3 + 0.2j, -0.4, 0.25],
                  [-0.1j, 0.25, -0.6]])
    u = np.eye(3, dtype=complex)
    t0 = time.perf_counter()
    for k in range(iterations):
        w, v = np.linalg.eigh(h * (1.0 + 1e-3 * (k % 100)))
        u = ((v * np.exp(-0.01j * w)) @ v.conj().T) @ u
        sum(x * x for x in range(20)) + float(np.trace(u @ h).real)
    return time.perf_counter() - t0


def reference_seconds(wall: float) -> float:
    """Scale a wall time just measured by the host speed measured right after."""
    return wall * CAL_REF_S / calibrate()


def measure(wl, seconds: float) -> tuple[dict, list, dict]:
    """Untraced closed loop; the timed region is the op alone, not its check.

    Each op sits between two calibration blocks.  Its wall and CPU seconds
    are scaled by CAL_REF_S over the mean of those two blocks, giving
    reference-host seconds (``ref_s``).  On a shared host the speed drifts by
    tens of percent within a minute; the scaling cancels that drift, which
    otherwise swamps any change to toqc itself.
    """
    lat, cpu, scale, records = [], [], [], []
    child_rss = 0
    start = time.perf_counter()
    cal_before = calibrate()
    i = 0
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        out, error = attempt(wl.op, i)
        lat.append(time.perf_counter() - t0)
        op_cpu = time.process_time() - c0
        if not wl.in_process and out is not None:
            op_cpu = out.cpu_s
            child_rss = max(child_rss, out.maxrss_kb)
        records.append(judge(wl, i, out, error))
        cal_after = calibrate()
        scale.append(CAL_REF_S / (0.5 * (cal_before + cal_after)))
        if wl.in_process or out is not None:
            cpu.append(op_cpu * scale[-1])
        cal_before = cal_after
        i += 1
        if time.perf_counter() - start + statistics.median(lat) + cal_after > seconds:
            break
    passed = sum(r["ok"] for r in records)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process \
        else child_rss
    lat_ref = [t * k for t, k in zip(lat, scale)]
    metrics = {
        "latency_s.p50": statistics.median(lat_ref),
        "ops_per_s": passed / sum(lat_ref),
        "cpu_s_per_op": sum(cpu) / len(cpu) if cpu else float("nan"),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    wall = {"latency_wall_s.p50": statistics.median(lat),
            "host_speed.p50": statistics.median(scale)}
    return metrics, records, wall


def measure_traced(wl, seconds: float) -> tuple[dict, list, list]:
    """Each instance untraced, then traced; per-layer numbers per traced op."""
    from tracer import Tracer

    tracer = Tracer()

    def nfev():
        return tracer.stats.get("brachistochrone.least_squares", {}).get("nfev", 0)

    plain, traced, unattributed = [], [], 0.0
    rec_off, rec_on = [], []
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        out, error = attempt(wl.inproc_op, i)
        plain.append(time.perf_counter() - t0)
        rec_off.append(judge(wl, i, out, error))

        nfev0 = nfev()
        with tracer:
            (out, error), dt, un = tracer.run_op(lambda: attempt(wl.inproc_op, i))
        traced.append(dt)
        unattributed += un
        rec = judge(wl, i, out, error)
        rec["nfev"] = nfev() - nfev0
        rec_on.append(rec)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break

    n = len(traced)
    metrics = {}
    for metric, (bucket, field) in PER_LAYER.items():
        layer = bucket.removesuffix(".dense")
        if layer in tracer.absent or (field not in ("calls", "self_s")
                                      and layer in tracer.broken):
            metrics[metric] = None
            continue
        st = tracer.stats.get(bucket, {})
        if field == "converged_frac":
            value = st.get("converged", 0) / st["calls"] if st.get("calls") else 0.0
        else:
            value = st.get(field, 0) / n
        metrics[metric] = value
    metrics["trace.op_s"] = sum(traced) / n
    metrics["trace.unattributed_s"] = unattributed / n
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["cli.interpreter_s"] = metrics["cli.import_s"] = 0.0
    if not wl.in_process:
        from workloads import spawn

        def timed(argv):
            t = time.perf_counter()
            run = spawn(argv)
            if run.code != 0:
                raise RuntimeError(f"{argv} failed: {run.stderr.strip()[-200:]}")
            return time.perf_counter() - t

        bare = statistics.median(timed([sys.executable, "-c", "pass"])
                                 for _ in range(CLI_PROBES))
        imp = statistics.median(timed([sys.executable, "-c", "import toqc.cli"])
                                for _ in range(CLI_PROBES))
        metrics["cli.interpreter_s"] = bare
        metrics["cli.import_s"] = imp - bare
    return metrics, rec_off, rec_on


def compare_records(a: dict, b: dict, rtol: float = RTOL_T) -> list[str]:
    """Differences between two answer records of the same workload and seed."""
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        return [f"records are of different runs: {a['workload']} seed {a['seed']} "
                f"vs {b['workload']} seed {b['seed']}"]
    diffs = []
    other = {r["op"]: r for r in b["ops"]}
    for ra in a["ops"]:
        rb = other.get(ra["op"])
        if rb is None:
            continue
        where = f"op {ra['op']}"
        for field in ("instance", "arc", "verdict", "ok"):
            if ra.get(field) != rb.get(field):
                diffs.append(f"{where}: {field} {ra.get(field)!r} -> {rb.get(field)!r}")
        ta, tb = ra.get("T"), rb.get("T")
        if ta is None or tb is None:
            if (ta is None) != (tb is None):
                diffs.append(f"{where}: T {ta!r} -> {tb!r}")
        elif not (math.isnan(ta) and math.isnan(tb)) and \
                not abs(ta - tb) <= rtol * max(abs(ta), abs(tb)):
            diffs.append(f"{where}: T {ta!r} -> {tb!r} "
                         f"(relative change {abs(ta - tb) / max(abs(ta), abs(tb)):.3e})")
    return diffs


def write_record(name: str, wl, seed: int, ops: list, env: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "env": env, "ops": ops}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return os.path.relpath(path, ROOT)


def setup_probe(workload: str, seed: int) -> float:
    """Median-able sample: a cold set-up in a fresh child process."""
    from workloads import spawn
    run = spawn([sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)])
    if run.code != 0:
        raise RuntimeError(f"set-up probe failed: {run.stderr.strip()[-300:]}")
    return float(run.stdout.split()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, tiny=tiny)
    setup = time.perf_counter() - T0
    if not trace:
        setup = reference_seconds(setup)
    stem = f"answers-{workload}-seed{seed}"
    if trace:
        metrics, rec_off, rec_on = measure_traced(wl, seconds)
        env = environment()
        diffs = compare_records({"workload": workload, "seed": seed, "ops": rec_off},
                                {"workload": workload, "seed": seed, "ops": rec_on})
        paths = [write_record(f"{stem}-trace-off.json", wl, seed, rec_off, env),
                 write_record(f"{stem}-trace-on.json", wl, seed, rec_on, env)]
        records = rec_off + rec_on
        for d in diffs:
            print(f"traced answer differs: {d}")
    else:
        metrics, records, wall = measure(wl, seconds)
        if not tiny:
            samples = [setup] + [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
            setup = statistics.median(samples)
        metrics["setup_s"] = setup
        env = environment()
        env["wall"] = wall
        paths = [write_record(f"{stem}.json", wl, seed, records, env)]
        diffs = []
    failed = sum(not r["ok"] for r in records)
    return {"correct": failed == 0 and not diffs, "attempted": len(records),
            "failed": failed, "metrics": metrics, "env": env, "paths": paths,
            "records": records}


def report(workload: str, result: dict, trace: bool) -> None:
    """Human-readable lines; the machine-readable line comes last."""
    m = result["metrics"]
    print(f"workload {workload}: {result['attempted']} ops, {result['failed']} failed "
          f"(fail_frac {result['failed'] / result['attempted']:.4g})")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for rec in result["records"]:
        if not rec["ok"]:
            print(f"failed op {rec['op']}: {'; '.join(rec['problems'])}")
    if trace:
        width = max(len(k) for k in PER_LAYER)
        total = 0.0
        for metric in PER_LAYER:
            value = m[metric]
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {metric:<{width}}  {shown:>12} {unit_of(metric)}")
            if value is not None and metric.endswith(("self_s", "dense_s")):
                total += value
        print(f"  {'unattributed':<{width}}  {m['trace.unattributed_s']:>12.6g} s")
        print(f"  self times + unattributed = {total + m['trace.unattributed_s']:.6g} s; "
              f"traced op = {m['trace.op_s']:.6g} s")
        print(f"  cli interpreter {m['cli.interpreter_s']:.4g} s, "
              f"import toqc.cli {m['cli.import_s']:.4g} s")
        print(f"  tracing overhead: traced p50 / untraced p50 - 1 = "
              f"{m['trace.overhead_frac']:+.3%}")
    else:
        for metric in END_TO_END:
            print(f"  {metric} = {m[metric]:.6g} {unit_of(metric)}")
        wall = result["env"]["wall"]
        print(f"  wall latency p50 = {wall['latency_wall_s.p50']:.6g} s; host speed "
              f"(reference calibration / measured) p50 = {wall['host_speed.p50']:.4g}")
    print("answers " + " ".join(result["paths"]))
    names = list(PER_LAYER) + list(RUN_LEVEL) if trace else list(END_TO_END)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m[k], "unit": unit_of(k)} for k in names}}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("shoot-su2", "navigate-su3", "cli-glc"))
    p.add_argument("--seed", type=int, default=4)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar="RECORD",
                   help="compare two answer records and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.compare:
        records = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        diffs = compare_records(*records)
        for d in diffs:
            print(d)
        shared = len({r["op"] for r in records[0]["ops"]} & {r["op"] for r in records[1]["ops"]})
        print(f"{len(diffs)} difference(s) over {shared} shared op(s)")
        return 1 if diffs else 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")

    require_source()
    sys.path.insert(0, HERE)
    if args.setup_probe:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed)
        print(reference_seconds(time.perf_counter() - T0))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
