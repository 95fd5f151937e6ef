"""Spans around the calls one symext module makes into another.

The tracer replaces public names in the module namespaces where the call
crosses a module boundary (for example ``symext.param.solve_extension``,
which ``bound_report`` and ``distance_to_extendible`` call) with a wrapper
that records a span: name, start, end, parent span and request. Spans stay
in memory; ``layer_metrics`` folds them into the per-layer figures, and the
benchmark writes them out when the run ends. Nothing under ``src/`` changes.
"""

import functools
import inspect
import time

WRAPPED = {
    "cli": ("state_from_payload", "channel_from_payload", "solve_extension",
            "test_channel", "bound_report"),
    "extend": ("solve_extension", "choi_from_kraus"),
    "param": ("solve_extension", "distance_to_extendible", "negativity",
              "hashing_lower_bound"),
}

CALIBRATED_SIDES = (8, 18, 27, 64)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request, "info": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        span["info"] = _describe(name, fn, args, kwargs, result)
        return result

    def install(self, mods) -> None:
        for key, names in WRAPPED.items():
            mod = getattr(mods, key)
            for attr in names:
                if not hasattr(mod, attr):
                    continue
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(f"{key}.{attr}", orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper


def _describe(name, fn, args, kwargs, result) -> dict:
    if name.endswith(".solve_extension"):
        problem = args[0] if args else kwargs["problem"]
        d_a, d_b = problem.target.dims
        return {"side": d_a * d_b * d_b, "iters": result.iterations,
                "polish": len(result.history), "verdict": result.verdict}
    if name == "param.distance_to_extendible":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return {"iters": result.iterations, "gap": result.fw_gap,
                "gap_tol": bound.arguments["gap_tol"]}
    return {}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall_s, psd_seconds, stage1_iters) -> dict:
    """Per-layer figures of one traced pass.

    ``psd_seconds`` maps a matrix side to the seconds of one
    ``linalg.psd_project``; ``stage1_iters`` is the solver's cyclic-stage
    budget, or None if the solver no longer has one.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    dur = [s["end"] - s["start"] for s in spans]

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s["name"] == name)

    solves = [(s, d) for s, d in zip(spans, dur) if s["name"].endswith(".solve_extension")]
    solve_s = sum(d for _, d in solves)
    iters = sum(s["info"]["iters"] for s, _ in solves)
    stage1 = stage1_iters if stage1_iters is not None else float("inf")
    in_dr = [s for s, _ in solves if s["info"]["iters"] > stage1]
    verdicts = [s["info"]["verdict"] for s, _ in solves]
    eigh_s = sum(s["info"]["iters"] * psd_seconds[s["info"]["side"]] for s, _ in solves
                 if s["info"]["side"] in psd_seconds)

    fws = [(s, d) for s, d in zip(spans, dur) if s["name"] == "param.distance_to_extendible"]
    fw_iters = sum(s["info"]["iters"] for s, _ in fws)
    fw_s = sum(d for _, d in fws)

    def parent_name(s):
        return spans[s["parent"]]["name"] if s["parent"] is not None else None

    param_solves = [(s, d) for s, d in solves if s["name"] == "param.solve_extension"]
    own = [(s, d) for s, d in param_solves if parent_name(s) == "cli.bound_report"]
    probes = [(s, d) for s, d in param_solves
              if parent_name(s) == "param.distance_to_extendible"]
    roots = sum(d for s, d in zip(spans, dur) if s["parent"] is None)

    return {
        "cli.main.self_s": sum(d - c for s, d, c in zip(spans, dur, child)
                               if s["name"] == "cli.main"),
        "cli.state_from_payload.s": total("cli.state_from_payload"),
        "cli.channel_from_payload.s": total("cli.channel_from_payload"),
        "quantum.choi_from_kraus.s": total("extend.choi_from_kraus"),
        "quantum.negativity.s": total("param.negativity"),
        "param.hashing_lower_bound.s": total("param.hashing_lower_bound"),
        "extend.solve_extension.calls": len(solves),
        "extend.solve_extension.s": solve_s,
        "extend.solve_extension.iters": iters,
        "extend.solve_extension.iters_dr": sum(s["info"]["iters"] - stage1 for s in in_dr),
        "extend.solve_extension.polish_rounds": sum(s["info"]["polish"] for s, _ in solves),
        "extend.solve_extension.s_per_iter": _ratio(solve_s, iters),
        "extend.solve_extension.feasible": verdicts.count("Feasible"),
        "extend.solve_extension.infeasible_numerical": verdicts.count("InfeasibleNumerical"),
        "extend.solve_extension.inconclusive": verdicts.count("Inconclusive"),
        "extend.dr_entered": len(in_dr),
        "extend.dr_useful_ratio": _ratio(
            sum(s["info"]["verdict"] == "Feasible" for s in in_dr), len(in_dr)),
        "extend.eigh_equiv_per_iter": _ratio(solve_s, eigh_s),
        "param.bound_report.s": total("cli.bound_report"),
        "param.distance_to_extendible.calls": len(fws),
        "param.distance_to_extendible.s": fw_s,
        "param.distance_to_extendible.iters": fw_iters,
        "param.distance_to_extendible.budget_stops": sum(
            s["info"]["gap"] > s["info"]["gap_tol"] for s, _ in fws),
        "param.distance_to_extendible.s_per_iter": _ratio(fw_s, fw_iters),
        "param.own_solve.s": sum(d for _, d in own),
        "param.probe.calls": len(probes),
        "param.probe.s": sum(d for _, d in probes),
        "param.probe.useful_ratio": _ratio(
            sum(s["info"]["verdict"] == "Feasible" for s, _ in probes), len(probes)),
        "trace.coverage": _ratio(roots, wall_s),
        "trace.spans": len(spans),
    }
