"""Inputs and the correctness oracle for each benchmark workload.

Every workload is a list of ``Request`` objects: the CLI arguments the
client sends, plus what the benchmark knows independently about the
answer. Inputs are written as the JSON files the CLI reads; the program
under test receives only those files.

Known truth used by the oracle:
  * an isotropic state of local dimension d is extendible iff
    F <= (d+1)/(2d);
  * entanglement-breaking (measure-and-prepare) channels, amplitude damping
    with gamma >= 1/2 and depolarizing channels at or above the flip
    p = d/(2(d+1)) are antidegradable, so their Choi states are extendible.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-7
# Absolute slack on the param comparisons, for rounding in values near 0.
INTERVAL_SLACK = 1e-9

BOUNDARY_INSTANCES = ((2, 0.75), (2, 0.76), (3, 0.66), (3, 0.67), (4, 0.62), (4, 0.63))

# channel-test: the families and their parameters are a fixed pool drawn
# from POOL_SEED. The run's --seed draws a Haar unitary on the input and on
# the output of every channel. That changes every number in the files but
# not extendibility or the solver's path (the solver is covariant under
# local unitaries), so runs on different seeds measure the same work.
POOL_SEED = 20050301
POOL_PER_FAMILY = 24


@dataclass
class Request:
    """One CLI call and what the oracle expects of it."""

    name: str
    verb: str  # "test" or "param"
    input_path: str
    extendible: bool
    channel: bool = False
    target: np.ndarray = None  # state the extension must reduce to
    dims: tuple = None
    report_path: str = None  # for "test"
    reference: tuple = None  # for "param": recorded [lo, hi] interval
    embed_d: int = None  # for "param": local dimension after embedding

    @property
    def argv(self) -> list:
        if self.verb == "test":
            return ["test", self.input_path, self.report_path, "--tol", repr(TOL)]
        return ["param", self.input_path, "--tol", repr(TOL), "--json"]


def encode(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def decode(payload) -> np.ndarray:
    arr = np.asarray(payload, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _write(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _state_payload(matrix, dims) -> dict:
    return {"dims": list(dims), "matrix": encode(matrix)}


def _channel_payload(kraus) -> dict:
    d_out, d_in = kraus[0].shape
    return {"d_in": d_in, "d_out": d_out, "kraus": [encode(k) for k in kraus]}


def own_choi(kraus) -> np.ndarray:
    """Choi state sum_k (I (x) K)|Phi><Phi|(I (x) K)^dagger, built here.

    (I (x) K) sum_i |i>|i> / sqrt(d) has entries K[j, i] / sqrt(d) at (i, j),
    so each term is the outer product of the flattened transpose.
    """
    d_in = kraus[0].shape[1]
    vecs = [np.asarray(k).T.reshape(-1) / math.sqrt(d_in) for k in kraus]
    return sum(np.outer(v, v.conj()) for v in vecs)


def maxent(d: int) -> np.ndarray:
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    return np.outer(phi, phi).astype(complex)


def _test_request(name, workdir, payload, extendible, target, dims) -> Request:
    path = workdir / f"{name}.json"
    _write(path, payload)
    return Request(
        name=name,
        verb="test",
        input_path=str(path),
        extendible=extendible,
        channel="kraus" in payload,
        target=target,
        dims=dims,
        report_path=str(workdir / f"{name}.report.json"),
    )


def boundary_isotropic(mods, seed, workdir, reference):
    """Fixed instances: the seed is recorded but draws nothing."""
    requests = []
    for d, f in BOUNDARY_INSTANCES:
        state = mods.constructions.isotropic(d, f)
        requests.append(
            _test_request(
                f"isotropic-d{d}-F{f}",
                workdir,
                _state_payload(state.matrix, (d, d)),
                f <= (d + 1) / (2 * d),
                np.asarray(state.matrix),
                (d, d),
            )
        )
    return requests


def _measure_prepare(rng, d_in, d_out, n_out):
    """Rank-one POVM from an isometry, followed by a pure state per outcome."""
    a = rng.standard_normal((n_out, d_in)) + 1j * rng.standard_normal((n_out, d_in))
    q, _ = np.linalg.qr(a)
    ops = []
    for k in range(n_out):
        t = rng.standard_normal(d_out) + 1j * rng.standard_normal(d_out)
        ops.append(np.outer(t / np.linalg.norm(t), q[k].conj()))
    return ops


def _amplitude_damping(gamma):
    return [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]


def _channel_pool(mods):
    """The fixed list of (name, Kraus operators) that channel-test rotates."""
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for i in range(POOL_PER_FAMILY):
        n = int(rng.integers(2, 5))
        pool.append((f"mp-2to2-n{n}-{i}", _measure_prepare(rng, 2, 2, n)))
        n = int(rng.integers(3, 7))
        pool.append((f"mp-3to3-n{n}-{i}", _measure_prepare(rng, 3, 3, n)))
        n = int(rng.integers(2, 5))
        pool.append((f"mp-2to3-n{n}-{i}", _measure_prepare(rng, 2, 3, n)))
        gamma = float(rng.uniform(0.55, 0.95))
        pool.append((f"ampdamp-{gamma:.3f}-{i}", _amplitude_damping(gamma)))
        d = 2 + i % 2
        flip = d / (2 * (d + 1))
        p = float(rng.uniform(flip + 0.05, 0.95))
        ops = mods.quantum.depolarizing_channel(d, p).kraus
        pool.append((f"depol-d{d}-{p:.3f}-{i}", [np.asarray(k) for k in ops]))
    return pool


def channel_test(mods, seed, workdir, reference):
    rng = np.random.default_rng(seed)
    requests = []
    for name, ops in _channel_pool(mods):
        d_out, d_in = ops[0].shape
        v = mods.sampling.random_unitary(rng, d_in)
        w = mods.sampling.random_unitary(rng, d_out)
        kraus = [w @ k @ v for k in ops]
        requests.append(
            _test_request(
                name, workdir, _channel_payload(kraus), True, own_choi(kraus), (d_in, d_out)
            )
        )
    return requests


def distance_states(mods, isotropic_fidelity=0.8):
    """(name, matrix, dims, extendible) of the distance-fw instances.

    The isotropic state stands for "not extendible, so the verb pays for its
    own solve and for the warm-start probe". At F = 0.9, the value first
    proposed, ``symext param`` exits 2 with the bound_report "inconsistent
    sandwich" error (hashing bound 0.3725 above the distance 0.2523), so the
    gated workload uses F = 0.8 and the one-shot report keeps F = 0.9.
    """
    f = isotropic_fidelity
    return [
        ("maxent-d3", maxent(3), (3, 3), False),
        (f"isotropic-d2-F{f}", np.asarray(mods.constructions.isotropic(2, f).matrix),
         (2, 2), False),
        ("example-f0.45", np.asarray(mods.constructions.example_state(0.45).matrix),
         (3, 3), True),
    ]


def distance_fw(mods, seed, workdir, reference):
    """Fixed instances: the seed is recorded but draws nothing."""
    return [param_request(name, workdir, m, dims, ext, reference)
            for name, m, dims, ext in distance_states(mods)]


def param_request(name, workdir, matrix, dims, extendible, reference) -> Request:
    path = workdir / f"{name}.json"
    _write(path, _state_payload(matrix, dims))
    return Request(
        name=name,
        verb="param",
        input_path=str(path),
        extendible=extendible,
        dims=dims,
        reference=tuple(reference[name]) if name in reference else None,
        embed_d=max(dims),
    )


WORKLOADS = {
    "boundary-isotropic": boundary_isotropic,
    "channel-test": channel_test,
    "distance-fw": distance_fw,
}


def warmup_requests(requests, workdir):
    """One cheap request per (verb, input kind, dims) in the workload.

    A maximally mixed target certifies at the first residual check, so each
    matrix side pays its first-call costs here and not in the timed pass.
    """
    kinds = sorted({(req.verb, req.channel, req.dims) for req in requests})
    out = []
    for verb, channel, (d_a, d_b) in kinds:
        n = d_a * d_b
        if channel:
            # replacement channel rho -> I/d_b, Kraus operators |j><i| / sqrt(d_b)
            kraus = [np.outer(np.eye(d_b)[j], np.eye(d_a)[i]) / math.sqrt(d_b)
                     for i in range(d_a) for j in range(d_b)]
            payload = _channel_payload(kraus)
        else:
            payload = _state_payload(np.eye(n) / n, (d_a, d_b))
        name = f"warmup-{verb}-{'channel' if channel else 'state'}-{d_a}x{d_b}"
        if verb == "test":
            out.append(_test_request(name, workdir, payload, True, np.eye(n) / n, (d_a, d_b)))
        else:
            out.append(param_request(name, workdir, np.eye(n) / n, (d_a, d_b), True, {}))
    return out


@dataclass
class Outcome:
    status: str  # "ok", "failed" (no answer) or "incorrect" (wrong answer)
    detail: str = ""
    interval_width: float = 0.0
    request: str = ""


def check(req: Request, rc, output: str, verify_certificate, density_matrix) -> Outcome:
    """Judge one answer against known truth; runs outside the timed region."""
    if rc not in (0, 1):
        lines = output.strip().splitlines()
        return Outcome("failed", f"exit {rc}: {lines[-1] if lines else ''}")
    if rc == 0 and not req.extendible:
        return Outcome("incorrect", "certified a non-extendible input")
    if req.verb == "test":
        return _check_test(req, rc, verify_certificate, density_matrix)
    return _check_param(req, rc, output)


def _check_test(req, rc, verify_certificate, density_matrix) -> Outcome:
    with open(req.report_path) as fh:
        report = json.load(fh)
    verdict = report.get("verdict")
    if (verdict == "Feasible") != (rc == 0):
        return Outcome("incorrect", f"verdict {verdict} with exit {rc}")
    if rc == 1:
        return Outcome("ok") if not req.extendible else Outcome(
            "failed", f"extendible input not certified ({verdict})"
        )
    ext = report.get("extension")
    if ext is None:
        return Outcome("incorrect", "Feasible report carries no extension")
    x = decode(ext["matrix"])
    res = verify_certificate(x, density_matrix(req.target, req.dims))
    combined = max(res.psd, res.swap, res.pt)
    if not combined <= TOL:
        return Outcome("incorrect", f"extension fails the check: residual {combined:.3e}")
    return Outcome("ok")


def normalization(d: int) -> float:
    """log2(d) / -log2((d+1)/(2d)), computed here so the oracle stays independent."""
    return -math.log2(d) / math.log2((d + 1) / (2 * d))


def _check_param(req, rc, output) -> Outcome:
    try:
        ans = json.loads(output.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return Outcome("incorrect", f"no JSON answer: {exc}")
    if bool(ans["certified_zero"]) != (rc == 0):
        return Outcome("incorrect", f"certified_zero {ans['certified_zero']} with exit {rc}")
    if not ans["lower_hashing"] <= ans["upper"] + INTERVAL_SLACK:
        return Outcome("incorrect", f"lower {ans['lower_hashing']} > upper {ans['upper']}")
    width = normalization(req.embed_d) * ans["fw_gap"]
    hi = ans["distance_estimate"]
    lo = hi - width
    if req.reference is not None:
        ref_lo, ref_hi = req.reference
        if lo > ref_hi + INTERVAL_SLACK or hi < ref_lo - INTERVAL_SLACK:
            return Outcome(
                "incorrect",
                f"interval [{lo:.6g}, {hi:.6g}] misses reference [{ref_lo:.6g}, {ref_hi:.6g}]",
            )
    if rc == 1 and req.extendible:
        return Outcome("failed", "extendible input not certified", width)
    return Outcome("ok", f"[{lo!r}, {hi!r}]", width)
