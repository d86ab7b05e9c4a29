"""Acceptance suite: one deterministic check per shipped guarantee.

Each criterion compares computed values against closed forms, tabulated
curve parameters, or randomized invariants at fixed tolerances.  The runner
never raises on failure; it reports one pass/fail line per criterion and an
overall verdict, so a perturbed build degrades to a nonzero exit instead of
a stack trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, closedform, measures, monogamy, qlinalg, states

SEED = 20240917


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _result(name, passed, detail) -> CriterionResult:
    return CriterionResult(name=name, passed=bool(passed), detail=detail)


def c01_isotropic_d2_q3():
    F = np.linspace(0.5 + 1e-3, 1.0, 50)
    err = max(abs(closedform.ctq_isotropic(f, 3, 2) - (2 * f - 1) ** 2) for f in F)
    return _result(
        "isotropic-exact-d2-q3",
        err <= 1e-10,
        f"max |value - (2F-1)^2| = {err:.2e} (tol 1e-10) over 50 fidelities",
    )


def c02_isotropic_d2_q4():
    F = np.linspace(0.5 + 1e-3, 1.0, 50)
    exact = lambda f: (7 + 4 * f * (1 - f)) / 7 * (2 * f - 1) ** 2
    err = max(abs(closedform.ctq_isotropic(f, 4, 2) - exact(f)) for f in F)
    Fb = np.linspace(0.0, 1.0, 401)
    gap = min(closedform.ctq_isotropic(f, 4, 2) - max(0.0, (2 * f - 1)) ** 2 for f in Fb)
    eq_half = abs(closedform.ctq_isotropic(0.5, 4, 2) - 0.0)
    eq_one = abs(closedform.ctq_isotropic(1.0, 4, 2) - 1.0)
    ok = err <= 1e-10 and gap >= -1e-9 and eq_half <= 1e-9 and eq_one <= 1e-9
    return _result(
        "isotropic-exact-d2-q4",
        ok,
        f"max closed-form err {err:.2e} (tol 1e-10); min(value - bound) {gap:.2e} "
        f"(tol -1e-9); boundary gaps {eq_half:.1e}, {eq_one:.1e}",
    )


def c03_envelope_junctions():
    p33 = closedform.isotropic_chord_params(3, 3)
    p43 = closedform.isotropic_chord_params(4, 3)
    chord95 = p43.slope * 0.95 + p43.intercept
    ref95 = 2.0658 * 0.95 - 1.06566
    ok = (
        0.93 <= p33.junction <= 0.95
        and 2.21 <= p33.slope <= 2.25
        and 0.894 <= p43.junction <= 0.914
        and abs(chord95 - ref95) <= 2e-3
    )
    return _result(
        "envelope-junctions-d3",
        ok,
        f"q=3 junction {p33.junction:.4f} in [0.93, 0.95], slope {p33.slope:.4f} in "
        f"[2.21, 2.25]; q=4 junction {p43.junction:.4f} in [0.894, 0.914], "
        f"chord(0.95) {chord95:.6f} vs {ref95:.6f} (tol 2e-3)",
    )


def c04_isotropic_d3_bound():
    worst = np.inf
    for q in (3, 4):
        for f in np.linspace(1 / 3 + 1e-3, 1.0, 300):
            gap = closedform.ctq_isotropic(f, q, 3) - (3 * f - 1) ** 2 / 4
            worst = min(worst, gap)
    return _result(
        "isotropic-d3-bound",
        worst >= -1e-9,
        f"min(value - (3F-1)^2/4) = {worst:.2e} (tol -1e-9) for q in (3, 4)",
    )


def c05_werner_closed_form():
    rng = np.random.default_rng(SEED)
    err3 = max(
        abs(closedform.zeta_werner(w, 3) - (2 * w - 1) ** 2)
        for w in np.linspace(0.5 + 1e-3, 1.0, 100)
    )
    err_hq = 0.0
    for _ in range(20):
        w = 0.5 + 0.5 * rng.random()
        q = 2.0 + 2.0 * rng.random()
        err_hq = max(err_hq, abs(closedform.zeta_werner(w, q) - measures.h_q(2 * w - 1, q)))
    ok = err3 <= 1e-12 and err_hq <= 1e-12
    return _result(
        "werner-closed-form",
        ok,
        f"max |zeta - (2w-1)^2| = {err3:.2e}, max |zeta - h_q(2w-1)| = {err_hq:.2e} (tol 1e-12)",
    )


def c06_threshold():
    s = bounds.s_threshold()
    sgn = (
        bounds.stationary_second_derivative(3, 2),
        bounds.stationary_second_derivative(4, 2),
        bounds.stationary_second_derivative(2, 3),
    )
    ok = 3.33802 <= s <= 3.34002 and sgn[0] < 0 and sgn[1] > 0 and sgn[2] >= 0
    return _result(
        "exponent-threshold",
        ok,
        f"s = {s:.6f} in [3.33802, 3.34002]; curvature signs (d=2,q=3) "
        f"{sgn[0]:+.3f} < 0, (d=2,q=4) {sgn[1]:+.3f} > 0, (d=3,q=2) {sgn[2]:+.3f} >= 0",
    )


def c07_trace_norm_identity():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for dims in ((2, 2), (2, 3), (3, 3), (3, 4)):
        n = dims[0] * dims[1]
        for _ in range(200):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a /= np.linalg.norm(a)
            psi = states.PureState(dims, a)
            rho = psi.density()
            lam = states.schmidt_spectrum(psi).values
            ref = np.sum(np.sqrt(lam)) ** 2
            tp = qlinalg.trace_norm(qlinalg.partial_transpose(rho, dims))
            tr = qlinalg.trace_norm(qlinalg.realign(rho, dims))
            worst = max(worst, abs(tp - ref) / ref, abs(tr - ref) / ref)
    return _result(
        "trace-norm-identity",
        worst <= 1e-8,
        f"max rel err of ||rho^G||_1 = ||R(rho)||_1 = (sum sqrt(lam))^2: {worst:.2e} (tol 1e-8)",
    )


def c08_oracle_equivalence():
    worst = 0.0
    for d in (2, 3, 4):
        for F in (0.4, 0.6, 0.8, 0.95):
            if F <= 1.0 / d + 1e-9:
                continue
            for q in (2, 3, 4):
                got = closedform.oracle_min_schmidt(F, q, d, restarts=100, seed=SEED)
                want = closedform.zeta_isotropic(F, q, d, normalized=False)
                worst = max(worst, abs(got - want))
    return _result(
        "oracle-equivalence",
        worst <= 1e-6,
        f"max |numerical min - closed form| = {worst:.2e} (tol 1e-6) on the (F, q, d) grid",
    )


def c09_concavity():
    rng = np.random.default_rng(SEED + 9)
    worst = np.inf

    def functional(mat, d, q):
        lam = qlinalg.probability_spectrum(mat)
        return d - np.sum(lam**q) - np.sum((1 - lam) ** q)

    for _ in range(1000):
        d = int(rng.integers(2, 5))
        q = 2.0 + 3.0 * rng.random()
        p = rng.random()
        r1 = states.random_density((d,), int(rng.integers(1, d + 1)), int(rng.integers(1 << 31))).mat
        r2 = states.random_density((d,), int(rng.integers(1, d + 1)), int(rng.integers(1 << 31))).mat
        mix = p * r1 + (1 - p) * r2
        gap = functional(mix, d, q) - (p * functional(r1, d, q) + (1 - p) * functional(r2, d, q))
        worst = min(worst, gap)
    return _result(
        "mixture-concavity",
        worst >= -1e-10,
        f"min concavity gap over 1000 random mixtures = {worst:.2e} (tol -1e-10)",
    )


def c10_monogamy():
    rng = np.random.default_rng(SEED + 10)
    worst = np.inf
    for nqubits, trials in ((3, 500), (4, 200)):
        dims = (2,) * nqubits
        n = 2**nqubits
        for _ in range(trials):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a /= np.linalg.norm(a)
            psi = states.MultipartiteState(dims, a)
            for q in (2.0, 2.5, 3.0):
                worst = min(worst, monogamy.monogamy_check(psi, q).residual)
    nu = np.sqrt(np.array([2, 0, 1, 2, 2]) / 7.0)
    triple = monogamy.gen_schmidt_concurrences(nu)
    ref = (2 * np.sqrt(10) / 7, 2 * np.sqrt(2) / 7, 4 / 7)
    trip_err = max(abs(a - b) for a, b in zip(triple, ref))
    kgaps = []
    for q in (2, 2.5, 3):
        for a in (1, 2, 3, 4):
            k1, k2 = monogamy.example2_K(nu, q, a)
            kgaps.append(k1 - k2)
    kmin = min(kgaps)
    ok = worst >= -1e-9 and trip_err <= 1e-12 and kmin >= 0.0
    return _result(
        "qubit-monogamy",
        ok,
        f"min residual over 700 random qubit states x q = {worst:.2e} (tol -1e-9); "
        f"concurrence triple err {trip_err:.1e} (tol 1e-12); min K1-K2 = {kmin:.4f} >= 0",
    )


def c11_chain_identities():
    rng = np.random.default_rng(SEED + 11)
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi)
        q = 2.0 + 3.0 * rng.random()
        closed = monogamy.chain_ctq(theta, q)[0]
        direct = measures.ctq_pure(states.chain_state(theta).split_first(), q).value
        worst = max(worst, abs(closed - direct))
    ac_dev = max(
        abs(monogamy.chain_ctq(th, qq)[2] - 1.0)
        for th in np.linspace(0, np.pi, 7)
        for qq in (2, 3, 5)
    )
    quarter = monogamy.chain_ctq(np.pi / 4, 3.7)
    quarter_dev = max(abs(v - 1.0) for v in quarter)
    ok = worst <= 1e-10 and ac_dev == 0.0 and quarter_dev <= 1e-12
    return _result(
        "chain-identities",
        ok,
        f"max |closed form - direct| = {worst:.2e} (tol 1e-10) over 20 angles; "
        f"AC term == 1: dev {ac_dev:.1e}; theta=pi/4 triple dev {quarter_dev:.1e}",
    )


def c12_hq_kernel():
    rng = np.random.default_rng(SEED + 12)
    worst = np.inf
    eq_worst = 0.0
    count = 0
    while count < 10000:
        a, b = rng.random(2)
        if a * a + b * b > 1.0:
            continue
        count += 1
        q = 2.0 + rng.random()
        r = np.sqrt(a * a + b * b)
        worst = min(worst, measures.h_q(r, q) - measures.h_q(a, q) - measures.h_q(b, q))
        if count % 5 == 0:
            for qe in (2.0, 3.0):
                eq_worst = max(
                    eq_worst,
                    abs(measures.h_q(r, qe) - measures.h_q(a, qe) - measures.h_q(b, qe)),
                )
    ok = worst >= -1e-10 and eq_worst <= 1e-10
    return _result(
        "hq-superadditivity",
        ok,
        f"min gap over 10^4 samples = {worst:.2e} (tol -1e-10); "
        f"max |equality residual| at q in (2, 3) = {eq_worst:.2e} (tol 1e-10)",
    )


def _core_criteria():
    return {
        "isotropic-exact-d2-q3": c01_isotropic_d2_q3,
        "isotropic-exact-d2-q4": c02_isotropic_d2_q4,
        "envelope-junctions-d3": c03_envelope_junctions,
        "isotropic-d3-bound": c04_isotropic_d3_bound,
        "werner-closed-form": c05_werner_closed_form,
        "exponent-threshold": c06_threshold,
        "trace-norm-identity": c07_trace_norm_identity,
        "oracle-equivalence": c08_oracle_equivalence,
        "mixture-concavity": c09_concavity,
        "qubit-monogamy": c10_monogamy,
        "chain-identities": c11_chain_identities,
        "hq-superadditivity": c12_hq_kernel,
    }


def c13_mutation_smoke():
    """A perturbed normalization constant must make the exact checks fail."""
    measures._MU_SCALE = 1.0 + 1e-3
    _clear_curve_caches()
    try:
        perturbed = [c01_isotropic_d2_q3(), c05_werner_closed_form()]
    finally:
        measures._MU_SCALE = 1.0
        _clear_curve_caches()
    caught = [r.name for r in perturbed if not r.passed]
    return _result(
        "mutation-smoke",
        len(caught) > 0,
        f"perturbing the normalization by 1e-3 fails {caught or 'nothing'}",
    )


def _clear_curve_caches():
    closedform._iso_hull.cache_clear()
    closedform._werner_hull.cache_clear()


def run_acceptance(mu_perturbation: float = 0.0, echo=None, only=None) -> list[CriterionResult]:
    """Run the criteria (optionally a named subset), honouring a tampered constant."""
    criteria = _core_criteria()
    results: list[CriterionResult] = []
    old_scale = measures._MU_SCALE
    measures._MU_SCALE = 1.0 + mu_perturbation
    _clear_curve_caches()
    try:
        for name, crit in criteria.items():
            if only is not None and name not in only:
                continue
            res = crit()
            results.append(res)
            if echo:
                echo(res.line())
    finally:
        measures._MU_SCALE = old_scale
        _clear_curve_caches()
    if mu_perturbation == 0.0 and (only is None or "mutation-smoke" in only):
        res = c13_mutation_smoke()
        results.append(res)
        if echo:
            echo(res.line())
    return results


def all_passed(results: list[CriterionResult]) -> bool:
    return all(r.passed for r in results)
