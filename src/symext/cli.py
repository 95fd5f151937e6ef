"""Command-line front end: file formats, the capacity test, sweeps, bounds.

Verbs: choi, test, sweep-isotropic, param, verify-paper. States and
channels travel as JSON with [re, im] pairs in row-major nested arrays;
sweeps produce CSV. ``test`` and ``param`` read a state, or a channel as
its Choi state. The files ``choi`` and ``test`` write hold the text
json.dumps writes for their payload, matrices as ``encode_matrix`` lists;
one writer makes that text and formats each distinct magnitude once.
Exit codes: 0 = certified feasible (zero one-way capacity), 1 = not
certified, 2 = error. Code 1 makes no claim of positive capacity; the
test is one-sided. Errors print to stderr as "input error: ..." for an
input file that cannot be read or is malformed, an output path that
cannot be opened for writing, or an argument that breaks one of the
library's rules (``linalg.InputError``: dimensions, sizes, bipartite
targets, sweep ranges, and each option, ``--only`` included, under its
parameter's name, such as ``fw_max_iter``, after the input file is read
and before any solve), and as "internal error: <type>: ..." for a fault inside the program.
The CLI holds no rule of its own.
"""

import argparse
import functools
import json
import operator
import sys

import numpy as np

from .extend import FEASIBLE, ExtensionProblem, run_isotropic_sweep, solve_extension
from .linalg import InputError
from .param import bound_report
from .quantum import DensityMatrix, KrausChannel, choi_from_kraus

__all__ = [
    "encode_matrix",
    "decode_matrix",
    "state_to_payload",
    "state_from_payload",
    "channel_from_payload",
    "main",
]


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


@functools.cache
def _matrix_template(rows: int, cols: int) -> str:
    """The text json.dumps writes for a rows x cols [re, im] array, with %s
    in place of each number."""
    row = "[" + ", ".join(["[%s, %s]"] * cols) + "]"
    return "[" + ", ".join([row] * rows) + "]"


_JSON_TOKENS = {"nan": "NaN", "inf": "Infinity"}


def _matrix_json(m) -> str:
    """json.dumps(encode_matrix(m)) for a 2-D matrix, byte for byte, with
    each distinct magnitude formatted once. For a finite a >= 0,
    repr(-a) == "-" + repr(a), -0.0 included; a NaN is written without
    its sign, as json writes it."""
    m = np.ascontiguousarray(m, dtype=complex)
    values = m.view(np.float64).ravel()  # re, im interleaved
    mags, index = np.unique(np.abs(values).view(np.uint64), return_inverse=True)
    text = [_JSON_TOKENS.get(t, t) for t in map(repr, mags.view(np.float64).tolist())]
    table = text + ["-" + t if t != "NaN" else t for t in text]
    index = index + len(text) * np.signbit(values)
    return _matrix_template(*m.shape) % operator.itemgetter(*index.tolist())(table)


def _dumps(payload) -> str:
    """json.dumps(payload) for JSON values and dicts of them, with each
    numpy matrix in it written as json.dumps(encode_matrix(matrix))."""
    if isinstance(payload, np.ndarray):
        return _matrix_json(payload)
    if isinstance(payload, dict):
        items = (f"{json.dumps(k)}: {_dumps(v)}" for k, v in payload.items())
        return "{" + ", ".join(items) + "}"
    return json.dumps(payload)


def decode_matrix(payload, field: str) -> np.ndarray:
    try:
        arr = np.array([[complex(re, im) for re, im in row] for row in payload])
    except (TypeError, ValueError) as exc:
        raise InputError(f"field '{field}' is not a nested [re, im] array: {exc}")
    return arr


def state_to_payload(state: DensityMatrix) -> dict:
    return {"dims": list(state.dims), "matrix": encode_matrix(state.matrix)}


def state_from_payload(payload) -> DensityMatrix:
    if not isinstance(payload, dict):
        raise InputError("state file must contain a JSON object")
    for field in ("dims", "matrix"):
        if field not in payload:
            raise InputError(f"state file is missing required field '{field}'")
    try:
        dims = tuple(payload["dims"])
    except TypeError as exc:
        raise InputError(f"field 'dims' must be a list of integers: {exc}")
    matrix = decode_matrix(payload["matrix"], "matrix")
    try:
        return DensityMatrix(matrix, dims)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"field 'matrix' violates a state invariant: {exc}")


def channel_from_payload(payload) -> KrausChannel:
    if not isinstance(payload, dict):
        raise InputError("channel file must contain a JSON object")
    for field in ("d_in", "d_out", "kraus"):
        if field not in payload:
            raise InputError(f"channel file is missing required field '{field}'")
    if not isinstance(payload["kraus"], list) or not payload["kraus"]:
        raise InputError("field 'kraus' must be a non-empty list of matrices")
    ops = [decode_matrix(k, f"kraus[{i}]") for i, k in enumerate(payload["kraus"])]
    try:
        return KrausChannel(payload["d_in"], payload["d_out"], tuple(ops))
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"field 'kraus' violates the channel invariant: {exc}")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read '{path}': {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"'{path}' is not valid JSON: {exc}")


def _load_target(path: str) -> DensityMatrix:
    """The state an input file names: the state itself, or a channel's Choi state."""
    payload = _load_json(path)
    if isinstance(payload, dict) and "kraus" in payload:
        return choi_from_kraus(channel_from_payload(payload)).state
    return state_from_payload(payload)


def _open_out(path: str):
    """Open an output file; a path that cannot be opened (a missing
    directory, a directory itself) is an input error, as an unreadable
    input file is."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write '{path}': {exc}")


def _write_json(path: str, payload) -> None:
    with _open_out(path) as fh:
        fh.write(_dumps(payload) + "\n")


def cmd_choi(args) -> int:
    ch = channel_from_payload(_load_json(args.channel_file))
    choi = choi_from_kraus(ch)
    _write_json(args.out_file, {"dims": list(choi.state.dims), "matrix": choi.state.matrix})
    print(f"wrote Choi state ({choi.d_in} x {choi.d_out}) to {args.out_file}")
    return 0


def cmd_test(args) -> int:
    state = _load_target(args.input_file)
    cert = solve_extension(ExtensionProblem(target=state, tol=args.tol, max_iter=args.max_iter))
    if cert.verdict == FEASIBLE:
        capacity = "one-way capacity Q-> = 0 (certified by symmetric extension)"
    else:
        capacity = "test inconclusive for capacity (no symmetric extension found)"
    res = cert.residuals
    report = {
        "verdict": cert.verdict,
        "psd_residual": res.psd,
        "swap_residual": res.swap,
        "pt_residual": res.pt,
        "iterations": cert.iterations,
        "stop_reason": cert.stop_reason,
        "witness_margin": cert.witness_margin,
        "capacity": capacity,
    }
    if cert.verdict == FEASIBLE:
        d_a, d_b = state.dims
        report["extension"] = {
            "dims": [d_a, d_b, d_b],
            "matrix": cert.candidate,
        }
    if args.out_report:
        _write_json(args.out_report, report)
    print(f"verdict: {cert.verdict} ({cert.iterations} iterations)")
    print(f"residuals: psd={res.psd:.3e} swap={res.swap:.3e} pt={res.pt:.3e}")
    stop = f"stopped by: {cert.stop_reason}"
    if cert.witness is not None:
        stop += f" (dual witness margin {cert.witness_margin:.3e})"
    print(stop)
    print(capacity)
    return 0 if cert.verdict == FEASIBLE else 1


def cmd_sweep_isotropic(args) -> int:
    result = run_isotropic_sweep(
        args.d,
        args.f_min,
        args.f_max,
        args.steps,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    with _open_out(args.out_csv) as fh:
        fh.write("F,verdict,psd_res,swap_res,pt_res,iters\n")
        for row in result.rows:
            c, res = row.certificate, row.certificate.residuals
            fh.write(
                f"{row.fidelity!r},{c.verdict},{res.psd!r},"
                f"{res.swap!r},{res.pt!r},{c.iterations}\n"
            )
        if result.boundary is not None:
            fh.write(f"# boundary_estimate = {result.boundary!r}\n")
            print(f"boundary estimate: {result.boundary}")
    print(f"wrote {len(result.rows)} rows to {args.out_csv}")
    return 0


def cmd_param(args) -> int:
    state = _load_target(args.input_file)
    report = bound_report(
        state,
        tol=args.tol,
        max_iter=args.max_iter,
        fw_max_iter=args.fw_max_iter,
        gap_tol=args.gap_tol,
    )
    payload = {
        "lower_hashing": report.lower,
        "hashing_raw": report.hashing_raw,
        "upper": report.upper,
        "extendible": report.extendible,
        "negativity": report.negativity,
        "distance_estimate": report.parameter.value,
        "fw_gap": report.parameter.fw_gap,
        "fw_stop": report.parameter.stop_reason,
        "certified_zero": report.certified_zero,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"hashing lower bound: {report.lower:.6f} (raw {report.hashing_raw:.6f})")
        print(
            f"distance estimate: {report.parameter.value:.6f} "
            f"(fw_gap {report.parameter.fw_gap:.2e}, "
            f"stopped by {report.parameter.stop_reason})"
        )
        print(f"extendibility: {report.extendible}; negativity: {report.negativity:.6f}")
        if report.certified_zero:
            print("D-> = 0 certified (symmetric extension found); "
                  f"upper bound {report.upper:.6f}")
        else:
            print(f"single-copy parameter: {report.upper:.6f}")
    return 0 if report.certified_zero else 1


def cmd_verify_paper(args) -> int:
    from .acceptance import run_checks

    checks = run_checks(only=args.only, seed=args.seed)
    width = max(len(c.name) for c in checks)
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        all_ok &= c.passed
        print(
            f"{status}  {c.name:<{width}}  target={c.target}  "
            f"measured={c.measured}  tol={c.tolerance}  ({c.seconds:.1f}s)"
        )
    print("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return 0 if all_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symext",
        description="symmetric-extendibility tests for quantum channels and states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("choi", help="convert a Kraus channel file to its Choi state")
    p.add_argument("channel_file")
    p.add_argument("out_file")
    p.set_defaults(func=cmd_choi)

    p = sub.add_parser("test", help="test a state or channel for symmetric extendibility")
    p.add_argument("input_file")
    p.add_argument("out_report", nargs="?", default=None)
    p.add_argument("--tol", type=float, default=ExtensionProblem.tol)
    p.add_argument("--max-iter", type=int, default=ExtensionProblem.max_iter)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("sweep-isotropic", help="grid the isotropic family")
    p.add_argument("out_csv")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f-min", type=float, required=True)
    p.add_argument("--f-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--tol", type=float, default=ExtensionProblem.tol)
    p.add_argument("--max-iter", type=int, default=ExtensionProblem.max_iter)
    p.set_defaults(func=cmd_sweep_isotropic)

    p = sub.add_parser("param", help="bounds on one-way distillable entanglement")
    p.add_argument("input_file")
    p.add_argument("--tol", type=float, default=ExtensionProblem.tol)
    p.add_argument("--max-iter", type=int, default=ExtensionProblem.max_iter)
    p.add_argument("--fw-max-iter", type=int, default=2000)
    p.add_argument("--gap-tol", type=float, default=1e-5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("verify-paper", help="run the acceptance battery")
    p.add_argument("--only", default=None, help="substring filter on check names")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit codes must stay in {0,1,2}
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
