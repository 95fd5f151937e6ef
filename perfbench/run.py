"""End-to-end and per-layer benchmark of the symext CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --acceptance <out.json>

Each workload is a closed loop: one client in this process calls the public
entry point ``symext.cli.main`` with the next request once the previous one
has returned. BLAS is pinned to one thread before numpy is imported.

Workloads (see ``workloads.py``):
  boundary-isotropic  ``symext test`` on isotropic states just inside and just
                      outside (d+1)/(2d) for d = 2, 3, 4; a few large solves,
                      dominated by the infeasible side. Fixed instances.
  channel-test        ``symext test`` on 120 channel files whose one-way
                      capacity is known to be zero; many small solves, all
                      Feasible. The seed draws local unitaries on a fixed pool.
  distance-fw         ``symext param --json`` on the 3x3 maximally entangled
                      state, isotropic(2, 0.8) and example_state(0.45); the
                      Frank-Wolfe distance. Fixed instances.

A run sets up SETUP_REPEATS times (import symext, write the input files, one
warm-up request per matrix side, ``psd_project`` calibration) and reports
the median as ``setup_s``. It then makes as many passes over the requests
as fit in ``--seconds``, at least one: it starts another pass only if one
as long as the longest so far would end in time. Every answer is checked
outside the timed region (``workloads.check``). Times are wall-clock
seconds as measured (``time.perf_counter``).

Metrics. BENCHMARK.json at the root of the checkout names the gated
metrics and their units; the last line of stdout is the JSON result.
  --trace 0  setup_s, wall_s (median pass), latency_p90_s (90th
             percentile over the requests of each request's median latency
             across passes, so that it does not depend on how many passes
             fit) and peak_rss_mb. The lines before the result also give,
             not gated: latency_p50_s, fail_ratio (requests without a
             correct answer / requests), fw_interval_width (sum over the
             param answers of normalization_factor(d) * fw_gap) and
             passes. latency_p50_s is left out of the gate because on
             boundary-isotropic and distance-fw it is the latency of one
             or two mid-size requests; fail_ratio is 0, and
             fw_interval_width is 0 outside distance-fw, and a gated metric
             must not be 0.
  --trace 1  pairs of an untraced and a traced pass (``tracing.py``), as
             many as fit in ``--seconds``, at least one; the median over
             traced passes of each per-layer metric, the tracing overhead
             (median of traced minus untraced pass) and the share of the
             pass covered by spans.
Each run writes its environment (numpy, BLAS, BLAS threads, nproc, CPU) and
every metric to ``perfbench/_work/``; a traced run also writes its spans.

``--acceptance`` is a one-shot report, not a gated workload: it runs
``symext.acceptance.run_checks()`` once and records each check's seconds and
PASS/FAIL, plus the ``param`` answers on the distance instances first
proposed for distance-fw, isotropic(2, 0.9) among them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 9
CALIBRATION_REPS = 25  # psd_project calls per calibrated side

# Printed by untraced runs and recorded in the result file, but not in
# BENCHMARK.json: see the module docstring.
UNGATED_UNITS = {"latency_p50_s": "s", "fail_ratio": "ratio", "fw_interval_width": "ebit",
                 "passes": "count"}


def metric_units(kind) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in file order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_symext():
    """Import symext afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "symext" or m.startswith("symext.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace()
    for name in ("cli", "extend", "param", "quantum", "linalg", "constructions",
                 "sampling"):
        setattr(mods, name, importlib.import_module(f"symext.{name}"))
    return mods


def calibrate_psd(linalg) -> dict:
    """Median seconds of one ``linalg.psd_project`` per calibrated side."""
    rng = np.random.default_rng(0)
    out = {}
    for n in tracing.CALIBRATED_SIDES:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (a + a.conj().T) / 2
        times = []
        for _ in range(CALIBRATION_REPS):
            t = time.perf_counter()
            linalg.psd_project(m)
            times.append(time.perf_counter() - t)
        out[n] = statistics.median(times)
    return out


def setup(workload, seed, workdir, reference):
    mods = load_symext()
    requests = workloads.WORKLOADS[workload](mods, seed, workdir, reference)
    for req in workloads.warmup_requests(requests, workdir):
        rc, out = call(mods.cli.main, req.argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {req.name} exited {rc}: {out.strip()}")
    psd = calibrate_psd(mods.linalg)
    return mods, requests, psd


def call(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - an escaped fault is a failed request
            rc = None
            print(f"raised {type(exc).__name__}: {exc}")
    return rc, buf.getvalue()


def run_pass(main, requests, tracer=None):
    """Send every request in turn; returns (latencies, outputs)."""
    latencies, outputs = [], []
    for req in requests:
        t = time.perf_counter()
        if tracer is None:
            rc, out = call(main, req.argv)
        else:
            tracer.request = req.name
            rc, out = tracer.call("cli.main", call, main, req.argv)
        latencies.append(time.perf_counter() - t)
        outputs.append((rc, out))
    return latencies, outputs


def judge(mods, requests, outputs):
    """Oracle over one pass; returns (outcomes, seconds spent in verify_certificate)."""
    verify = mods.extend.verify_certificate
    spent = [0.0]

    def timed_verify(x, target):
        t = time.perf_counter()
        try:
            return verify(x, target)
        finally:
            spent[0] += time.perf_counter() - t

    outcomes = []
    for req, (rc, out) in zip(requests, outputs):
        try:
            got = workloads.check(req, rc, out, timed_verify, mods.quantum.DensityMatrix)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            got = workloads.Outcome("incorrect", f"unreadable answer: {exc}")
        got.request = req.name
        outcomes.append(got)
    return outcomes, spent[0]


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Budget:
    """Repeats a step while one more step as long as the longest so far
    would end within ``seconds`` of the start; the first step always runs."""

    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds
        self.longest = 0.0
        self._step_start = None

    def more(self) -> bool:
        now = time.perf_counter()
        if self._step_start is not None:
            self.longest = max(self.longest, now - self._step_start)
            if now + self.longest > self.end:
                return False
        self._step_start = now
        return True


def measure(seconds, mods, requests):
    """Untraced passes, as many as fit in ``seconds``, at least one."""
    passes, outcomes, widths = [], [], []
    budget = Budget(seconds)
    while budget.more():
        lat, outs = run_pass(mods.cli.main, requests)
        got, _ = judge(mods, requests, outs)
        passes.append(lat)
        outcomes.extend(got)
        widths.append(sum(o.interval_width for o in got if o.status == "ok"))
    per_request = [statistics.median(lat) for lat in zip(*passes)]
    return {
        "wall_s": statistics.median([sum(lat) for lat in passes]),
        "latency_p90_s": percentile(per_request, 90),
        "latency_p50_s": statistics.median(per_request),
        "fw_interval_width": statistics.median(widths),
        "passes": len(passes),
    }, outcomes


def measure_traced(seconds, mods, requests, psd):
    """Pairs of an untraced and a traced pass, as many as fit in ``seconds``,
    at least one; the median over traced passes of each per-layer figure."""
    stage1 = getattr(mods.extend, "STAGE1_ITERS", None)
    per_pass, overheads, outcomes, spans = [], [], [], []
    budget = Budget(seconds)
    while budget.more():
        lat, outs = run_pass(mods.cli.main, requests)
        got, _ = judge(mods, requests, outs)
        outcomes.extend(got)
        tracer = tracing.Tracer()
        tracer.install(mods)
        try:
            traced_lat, traced_outs = run_pass(mods.cli.main, requests, tracer)
        finally:
            tracer.uninstall()
        traced_got, verify_s = judge(mods, requests, traced_outs)
        outcomes.extend(traced_got)
        layers = tracing.layer_metrics(tracer.spans, sum(traced_lat), psd, stage1)
        layers["extend.verify_certificate.s"] = verify_s
        layers["fw_interval_width"] = sum(
            o.interval_width for o in traced_got if o.status == "ok")
        per_pass.append(layers)
        overheads.append(sum(traced_lat) - sum(lat))
        spans.append(tracer.spans)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    for n, sec in psd.items():
        metrics[f"linalg.psd_project.us_{n}"] = sec * 1e6
    metrics["passes"] = len(per_pass)
    return metrics, outcomes, spans


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)["intervals"]


def run_workload(args) -> int:
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **environment()}
    print("env " + json.dumps(env))
    reference = load_reference()
    workdir = WORK / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            mods, requests, psd = setup(args.workload, args.seed, workdir, reference)
            setups.append(time.perf_counter() - t)
        if args.trace:
            metrics, outcomes, spans = measure_traced(args.seconds, mods, requests, psd)
            with open(WORK / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump(spans, fh)
        else:
            metrics, outcomes = measure(args.seconds, mods, requests)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(o.status != "ok" for o in outcomes)
    metrics["fail_ratio"] = failed / len(outcomes)
    for o in outcomes:
        if o.status != "ok":
            print(f"{o.status}: {o.request}: {o.detail}")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    for name, value in metrics.items():
        if name not in units:
            print(f"{name} = {value:.6g} {UNGATED_UNITS[name]} (not gated)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": all(o.status != "incorrect" for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"env": env, "requests_per_pass": len(requests), "setups_s": setups,
                   "all_metrics": metrics, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_acceptance(out_path) -> int:
    """One-shot: each acceptance check's seconds and PASS/FAIL, and the
    param answers on the distance instances first proposed for distance-fw."""
    mods = load_symext()
    acceptance = importlib.import_module("symext.acceptance")
    checks = []
    for row in acceptance.run_checks():
        checks.append({"name": row.name, "passed": row.passed, "seconds": row.seconds,
                       "measured": row.measured, "target": row.target})
        print(f"{'PASS' if row.passed else 'FAIL'}  {row.name}  {row.seconds:.1f}s  "
              f"{row.measured}")
    workdir = WORK / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        requests = [workloads.param_request(name, workdir, m, dims, ext, {})
                    for name, m, dims, ext in workloads.distance_states(mods, 0.9)]
        distance = []
        for req in requests:
            t = time.perf_counter()
            rc, out = call(mods.cli.main, req.argv)
            seconds = time.perf_counter() - t
            got = workloads.check(req, rc, out, None, None)
            distance.append({"name": req.name, "exit": rc, "seconds": seconds,
                             "status": got.status, "detail": got.detail,
                             "output": out.strip()})
            print(f"param {req.name}: exit {rc}, {got.status} {got.detail}  {seconds:.1f}s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "env": environment(),
        "checks": checks,
        "checks_passed": sum(c["passed"] for c in checks),
        "distance_instances": distance,
        "distance_fail_ratio": sum(d["status"] != "ok" for d in distance) / len(distance),
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--acceptance", metavar="OUT_JSON",
                        help="run the one-shot acceptance report instead")
    args = parser.parse_args(argv)
    if not (SRC / "symext" / "__init__.py").is_file():
        print(f"error: no symext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.acceptance:
        return run_acceptance(args.acceptance)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
