"""Output checks: each returns a list of faults, empty when the output is right.

A check compares against :mod:`reference` or against a property the method
must have; none compares against a stored copy of ctq's output.
"""

from __future__ import annotations

import csv
import io

import numpy as np

import reference as ref

# values are printed with 12 significant digits and lie in [0, 1]
TOL = 1e-9
# eigenvalues of the non-Hermitian spin-flip product lose about half the digits
WOOTTERS_TOL = 1e-6

ACCEPTANCE_CRITERIA = (
    "isotropic-exact-d2-q3",
    "isotropic-exact-d2-q4",
    "envelope-junctions-d3",
    "isotropic-d3-bound",
    "werner-closed-form",
    "exponent-threshold",
    "trace-norm-identity",
    "oracle-equivalence",
    "mixture-concavity",
    "qubit-monogamy",
    "chain-identities",
    "hq-superadditivity",
    "mutation-smoke",
)

CURVE_HEADERS = {
    "isotropic": ["F", "raw", "envelope", "lower_bound"],
    "werner": ["w", "raw", "envelope", "lower_bound", "eof"],
    "chain": ["theta", "gamma", "ctq_a_bc", "ctq_ab", "ctq_ac", "tau"],
}


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _envelope_faults(x, raw, env, zero_below: float) -> list[str]:
    faults = []
    if np.any(env > raw + TOL):
        faults.append("envelope above the raw curve")
    if np.any(np.diff(env) < -TOL):
        faults.append("envelope decreases")
    if env.size >= 3 and np.min(env[2:] - 2.0 * env[1:-1] + env[:-2]) < -TOL:
        faults.append("envelope not convex")
    if np.any(env[x <= zero_below] != 0.0):
        faults.append("envelope nonzero below the separable boundary")
    if x[-1] == 1.0 and not _close(env[-1], 1.0):
        faults.append(f"envelope at the endpoint is {env[-1]}, not 1")
    return faults


def check_curve(kind: str, params: dict, text: str) -> list[str]:
    """Check one curve CSV written by the isotropic, werner or chain command."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CURVE_HEADERS[kind]:
        return [f"bad header {rows[:1]}"]
    body = rows[1:]
    if len(body) != params["points"]:
        return [f"{len(body)} rows, expected {params['points']}"]
    if kind == "chain":
        return _check_chain(params, body)
    cols = list(zip(*body))
    x = np.array(cols[0], dtype=float)
    raw = np.array(cols[1], dtype=float)
    env = np.array(cols[2], dtype=float)
    q = params["q"]
    faults = []
    if kind == "isotropic":
        d = params["d"]
        want = np.array([ref.zeta_isotropic(F, q, d) for F in x])
        zero_below = 1.0 / d
    else:
        d = 2
        want = np.array([ref.zeta_werner(w, q) for w in x])
        zero_below = 0.5
        eof = np.array(cols[4], dtype=float)
        want_eof = np.array([ref.eof_from_concurrence(max(0.0, 2.0 * w - 1.0)) for w in x])
        if np.any(np.abs(eof - want_eof) > TOL):
            faults.append("eof differs from the binary entropy of (1 + sqrt(1 - C^2)) / 2")
    if np.any(np.abs(raw - want) > TOL * np.maximum(1.0, np.abs(want))):
        faults.append("raw differs from the two-level closed form")
    faults += _envelope_faults(x, raw, env, zero_below)
    if d == 2 and 2.0 <= q <= 4.0:
        hq = np.array([ref.h_q(max(0.0, 2.0 * t - 1.0), q) if t > 0.5 else 0.0 for t in x])
        if np.any(np.abs(env - hq) > TOL):
            faults.append("envelope differs from h_q(2F - 1)")
    bounds = [(i, float(b)) for i, b in enumerate(cols[3]) if b != ""]
    if any(b > env[i] + TOL for i, b in bounds):
        faults.append("lower bound above the envelope")
    return faults


def _check_chain(params: dict, body) -> list[str]:
    q, gamma = params["q"], params["gamma"]
    faults = []
    for row in body:
        theta, g, a_bc, ab, ac, tau = (float(v) for v in row)
        if g != gamma:
            faults.append(f"gamma column {g} != {gamma}")
        if not _close(a_bc, ref.chain_a_bc(theta, q)):
            faults.append(f"ctq_a_bc at theta={theta} differs from the SVD value")
        if ac != 1.0:
            faults.append(f"ctq_ac at theta={theta} is {ac}, not 1")
        if not -TOL <= ab <= 1.0 + TOL:
            faults.append(f"ctq_ab at theta={theta} outside [0, 1]")
        if not _close(tau, a_bc**gamma - ab**gamma - ac**gamma):
            faults.append(f"tau at theta={theta} is not a_bc^g - ab^g - ac^g")
        if faults:
            break
    return faults


def check_accept(report: dict, lines: list[str]) -> dict[str, bool]:
    """Per criterion: did both the echoed line and the JSON summary report PASS."""
    by_name = {c["name"]: c["passed"] is True for c in report.get("criteria", [])}
    echoed = {}
    for line in lines:
        verdict, _, rest = line.partition(" ")
        echoed[rest.split(":", 1)[0]] = verdict == "[PASS]"
    return {
        name: by_name.get(name, False) and echoed.get(name, False)
        for name in ACCEPTANCE_CRITERIA
    }


def _check_pure_measure(state: dict, q: float, rep: dict) -> list[str]:
    amps, dims = state["amps"], state["dims"]
    faults = []
    want = ref.pure_value(amps, dims, q)
    if not _close(rep["ctq_normalized"], want):
        faults.append(f"ctq_normalized {rep['ctq_normalized']} != SVD value {want}")
    lam = ref.schmidt_lambdas(amps, dims)
    c = np.sqrt(max(0.0, 2.0 * (1.0 - np.sum(lam**2))))
    if not _close(rep["concurrence"], c):
        faults.append(f"concurrence {rep['concurrence']} != {c}")
    return faults


def _check_mixed_measure(state: dict, q: float, rep: dict, family) -> list[str]:
    rho, dims = state["rho"], state["dims"]
    d = dims[0]
    faults = []
    if family is not None:
        name, param = family
        got = rep.get("family") or {}
        if got.get("name") != name or not _close(got.get("parameter", -1.0), param):
            faults.append(f"family {got} != {name} at {param}")
        value = rep["ctq_normalized"]
        # the trace-norm bound (dF - 1)^2 / (d - 1)^2 is claimed for d >= 3, and
        # for d = 2 from q = 4 on; F of the Werner state is its weight w
        floor = ref.trace_norm_bound(d * param, d) if d >= 3 or q >= 4.0 else 0.0
        ceiling = ref.zeta_isotropic(param, q, d) if name == "isotropic" else ref.zeta_werner(param, q)
        if not (-TOL <= value <= 1.0 + TOL and value >= floor - TOL and value <= ceiling + TOL):
            faults.append(f"family value {value} outside [{floor}, {ceiling}]")
    if dims == [2, 2] and 2.0 <= q <= 4.0:
        c = ref.wootters(rho)
        if abs(rep["wootters_concurrence"] - c) > WOOTTERS_TOL:
            faults.append(f"wootters {rep['wootters_concurrence']} != {c}")
        if abs(rep["ctq_normalized"] - ref.h_q(c, q)) > WOOTTERS_TOL:
            faults.append(f"ctq_normalized {rep['ctq_normalized']} != h_q(C)")
    elif family is None:
        faults += _check_bound_report(state, q, rep)
        if rep.get("lower_bound_only") is not True:
            faults.append("no lower_bound_only marker")
    return faults


def _check_bound_report(state: dict, q: float, rep: dict) -> list[str]:
    rho, d = state["rho"], state["dims"][0]
    faults = []
    ppt, rea = ref.ppt_norm(rho, d), ref.realign_norm(rho, d)
    if not (_close(rep["ppt_norm"], ppt) and _close(rep["realign_norm"], rea)):
        faults.append(f"norms ({rep['ppt_norm']}, {rep['realign_norm']}) != ({ppt}, {rea})")
    if (d >= 3 or q >= 4.0) and not _close(
        rep["lower_bound_normalized"], ref.trace_norm_bound(max(ppt, rea), d)
    ):
        faults.append(f"bound {rep['lower_bound_normalized']} != (N - 1)^2 / (d - 1)^2")
    if rep["entangled_by_ppt"] != (ppt > 1.0 + 1e-9):
        faults.append("entangled_by_ppt disagrees with the partial-transpose norm")
    return faults


def _check_pure_bound(state: dict, q: float, rep: dict) -> list[str]:
    rho = np.outer(state["amps"], state["amps"].conj())
    faults = _check_bound_report({"dims": state["dims"], "rho": rho}, q, rep)
    lam = ref.schmidt_lambdas(state["amps"], state["dims"])
    n = float(np.sum(np.sqrt(lam)) ** 2)
    if not (_close(rep["ppt_norm"], n) and _close(rep["realign_norm"], n)):
        faults.append(f"norms differ from (sum sqrt(lam))^2 = {n}")
    exact = ref.pure_value(state["amps"], state["dims"], q)
    if rep["lower_bound_normalized"] > exact + TOL:
        faults.append(f"bound {rep['lower_bound_normalized']} above the exact value {exact}")
    return faults


def _check_monogamy(state: dict, q: float, gamma: float, rep: dict) -> list[str]:
    amps, k = state["amps"], len(state["dims"])
    faults = []
    lhs = ref.h_q(min(1.0, ref.first_qubit_concurrence(amps, k)), q)
    if not _close(rep["lhs"], lhs):
        faults.append(f"lhs {rep['lhs']} != h_q of the marginal concurrence {lhs}")
    pairs = rep["pairwise"]
    if len(pairs) != k - 1 or any(not -TOL <= p <= 1.0 + TOL for p in pairs):
        faults.append(f"pairwise terms {pairs} are not k - 1 values in [0, 1]")
        return faults
    for i, p in enumerate(pairs, start=1):
        want = ref.h_q(ref.wootters(ref.pair_marginal(amps, k, i)), q)
        if abs(p - want) > WOOTTERS_TOL:
            faults.append(f"pairwise term {i} is {p}, expected {want}")
    if not _close(rep["residual"], rep["lhs"] ** gamma - sum(p**gamma for p in pairs)):
        faults.append("residual is not lhs^g - sum pairwise^g")
    if 2.0 <= q <= 3.0 and gamma == 1.0 and rep["residual"] < -1e-9:
        faults.append(f"residual {rep['residual']} < 0 in the guaranteed regime")
    return faults


def check_state_op(op: dict, state: dict, rep: dict) -> list[str]:
    """Check the JSON report of one measure, bound or monogamy call."""
    try:
        if op["cmd"] == "monogamy":
            return _check_monogamy(state, op["q"], op["gamma"], rep)
        if op["cmd"] == "bound":
            if "amps" in state:
                return _check_pure_bound(state, op["q"], rep)
            return _check_bound_report(state, op["q"], rep)
        if "amps" in state:
            return _check_pure_measure(state, op["q"], rep)
        return _check_mixed_measure(state, op["q"], rep, op.get("family"))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def read_state(obj: dict) -> dict:
    """Arrays of a state file, read with json + numpy only."""
    data = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    dims = [int(d) for d in obj["dims"]]
    if obj["kind"] == "pure":
        return {"dims": dims, "amps": data}
    n = int(np.prod(dims))
    return {"dims": dims, "rho": data.reshape(n, n)}
