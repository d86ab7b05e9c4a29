"""Command-line front end.

Subcommands: ``measure`` and ``bound`` evaluate a state file, ``isotropic``
and ``werner`` emit curve CSVs, ``chain`` sweeps the chain-state residual,
``monogamy`` checks a multipartite qubit state, and ``accept`` runs the
acceptance suite.  Reports are JSON, curves are CSV; output files are
written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import acceptance, bounds, closedform, measures, monogamy, states
from .exceptions import CtqError, ExponentOutsideTheoremRange, UnequalLocalDims, UnsupportedState


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ctq-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write_atomic(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in payload:
            writer.writerow(row)
        _write_atomic(out, buf.getvalue())


def _frange(lo: float, hi: float, step: float) -> np.ndarray:
    n = max(1, int(round((hi - lo) / step)))
    return np.linspace(lo, hi, n + 1)


def _emit_rows(rows: list[list[str]], params: dict) -> None:
    if params.get("format") == "json":
        header, body = rows[0], rows[1:]
        payload = [dict(zip(header, row)) for row in body]
        _emit(payload, "json", params.get("out"))
    else:
        _emit(rows, "csv", params.get("out"))


def cmd_measure(cfg: RunConfig) -> int:
    p = cfg.params
    state = states.load_state(p["state"])
    q = p["q"]
    alpha = p["alpha"]
    report: dict = {"file": p["state"], "q": q, "alpha": alpha}
    if isinstance(state, states.MultipartiteState):
        raise UnsupportedState(
            "measure handles bipartite states; use the monogamy command for multipartite input"
        )
    if isinstance(state, states.PureState):
        lam = states.schmidt_spectrum(state)
        d = min(state.dims)
        mv = measures.ctq_pure(state, q)
        report.update(
            {
                "kind": "pure",
                "dims": list(state.dims),
                "schmidt_spectrum": lam.values.tolist(),
                "q_concurrence": measures.q_concurrence_pure(lam, q),
                "total_concurrence_raw": measures.total_concurrence_pure(lam, q, d),
                "ctq_normalized": mv.value,
                "ct_alpha": measures.ct_alpha_pure(state, alpha),
                "concurrence": measures.concurrence_pure(state),
            }
        )
    else:
        report["kind"] = "density"
        report["dims"] = list(state.dims)
        family = _detect_family(state)
        if state.dims == (2, 2) and 2.0 - 1e-12 <= q <= 4.0 + 1e-12:
            c = measures.wootters_concurrence_2qubit(state)
            mv = measures.ctq_two_qubit_mixed(state, q)
            report.update(
                {
                    "wootters_concurrence": c,
                    "ctq_normalized": mv.value,
                    "ctq_raw": mv.value * measures.normalization_mu(2, q),
                }
            )
            if family is not None:
                report["family"] = {"name": family[0], "parameter": family[1]}
        elif family is not None:
            name, value = family
            d = state.dims[0]
            exact = (
                closedform.ctq_isotropic(value, q, d)
                if name == "isotropic"
                else closedform.ctq_werner(value, q)
            )
            report.update(
                {
                    "family": {"name": name, "parameter": value},
                    "ctq_normalized": exact,
                    "ctq_raw": exact * measures.normalization_mu(d if name == "isotropic" else 2, q),
                }
            )
        else:
            try:
                rep = bounds.lower_bound_thm2(state, q)
            except (ExponentOutsideTheoremRange, UnequalLocalDims) as exc:
                report.update({"lower_bound_only": True, "error": str(exc)})
                _emit(report, "json", p.get("out"))
                return 2
            report.update(
                {
                    "lower_bound_only": True,
                    "lower_bound_normalized": rep.lower_bound,
                    "ppt_norm": rep.ppt_norm,
                    "realign_norm": rep.realign_norm,
                    "entangled_by_ppt": rep.entangled_by_ppt,
                    "entangled_by_realignment": rep.entangled_by_realignment,
                }
            )
    _emit(report, "json", p.get("out"))
    return 0


def _detect_family(rho: states.DensityMatrix) -> tuple[str, float] | None:
    """Recognize twirl-invariant inputs so exact curve values can be reported."""
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        return None
    d = rho.dims[0]
    phi = states.max_entangled(d).amps
    F = float(np.real(phi.conj() @ rho.mat @ phi))
    if 0.0 <= F <= 1.0:
        ref = states.isotropic(min(max(F, 0.0), 1.0), d)
        if np.max(np.abs(rho.mat - ref.mat)) <= 1e-10:
            return ("isotropic", F)
    if d == 2:
        w = float(np.real(np.trace(rho.mat @ states.antisymmetric_projector(d))))
        if 0.0 <= w <= 1.0:
            ref = states.werner(min(max(w, 0.0), 1.0), d)
            if np.max(np.abs(rho.mat - ref.mat)) <= 1e-10:
                return ("werner", w)
    return None


def cmd_bound(cfg: RunConfig) -> int:
    p = cfg.params
    state = states.load_state(p["state"])
    if isinstance(state, (states.PureState, states.MultipartiteState)):
        state = states.DensityMatrix(state.dims, state.density())
    rep = bounds.lower_bound_thm2(state, p["q"])
    _emit(
        {
            "file": p["state"],
            "q": rep.q,
            "d": rep.d,
            "ppt_norm": rep.ppt_norm,
            "realign_norm": rep.realign_norm,
            "lower_bound_normalized": rep.lower_bound,
            "entangled_by_ppt": rep.entangled_by_ppt,
            "entangled_by_realignment": rep.entangled_by_realignment,
        },
        "json",
        p.get("out"),
    )
    return 0


def _isotropic_bound_column(F: float, q: float, d: int) -> float | None:
    try:
        rho = states.isotropic(F, d)
        return bounds.lower_bound_thm2(rho, q).lower_bound
    except CtqError:
        return None


def cmd_curve_isotropic(cfg: RunConfig) -> int:
    p = cfg.params
    d, q = p["d"], p["q"]
    grid = _frange(p["from"], p["to"], p["step"])
    scale = measures.normalization_mu(d, q) if p["raw_units"] else 1.0
    raw = closedform.zeta_isotropic(grid, q, d, normalized=not p["raw_units"])
    env = closedform.ctq_isotropic(grid, q, d) * scale
    rows = [["F", "raw", "envelope", "lower_bound"]]
    for F, r, e in zip(grid, raw, env):
        b = _isotropic_bound_column(F, q, d)
        if b is not None:
            b *= scale
        rows.append([f"{F:.10g}", f"{r:.12g}", f"{e:.12g}", "" if b is None else f"{b:.12g}"])
    _emit_rows(rows, p)
    return 0


def cmd_curve_werner(cfg: RunConfig) -> int:
    """The envelope column is the measure at each w, whatever the range."""
    p = cfg.params
    q = p["q"]
    grid = _frange(p["from"], p["to"], p["step"])
    scale = measures.normalization_mu(2, q) if p["raw_units"] else 1.0
    raw = closedform.zeta_werner(grid, q, normalized=not p["raw_units"])
    env = closedform.ctq_werner(grid, q) * scale
    rows = [["w", "raw", "envelope", "lower_bound", "eof"]]
    for w, r, e in zip(grid, raw, env):
        rho = states.werner(w, 2)
        try:
            bval = f"{bounds.lower_bound_thm2(rho, q).lower_bound * scale:.12g}"
        except CtqError:
            bval = ""  # exponent below the d=2 threshold: no bound available
        eof = closedform.eof_werner(w)
        rows.append([f"{w:.10g}", f"{r:.12g}", f"{e:.12g}", bval, f"{eof:.12g}"])
    _emit_rows(rows, p)
    return 0


def cmd_chain(cfg: RunConfig) -> int:
    p = cfg.params
    grid = _frange(p["from"], p["to"], p["step"])
    rows = [["theta", "gamma", "ctq_a_bc", "ctq_ab", "ctq_ac", "tau"]]
    for theta in grid:
        a_bc, ab, ac = monogamy.chain_ctq(theta, p["q"])
        tau = monogamy.residual_tau(theta, p["q"], p["gamma"], p["which"])
        rows.append(
            [f"{theta:.10g}", f"{p['gamma']:.10g}"]
            + [f"{v:.12g}" for v in (a_bc, ab, ac, tau)]
        )
    _emit_rows(rows, p)
    return 0


def cmd_monogamy(cfg: RunConfig) -> int:
    p = cfg.params
    state = states.load_state(p["state"])
    if not isinstance(state, states.MultipartiteState):
        raise UnsupportedState("monogamy requires a state with at least three parties")
    rep = monogamy.monogamy_check(state, p["q"], p["gamma"])
    _emit(
        {
            "file": p["state"],
            "q": rep.q,
            "gamma": rep.gamma,
            "lhs": rep.lhs,
            "pairwise": list(rep.pairwise),
            "residual": rep.residual,
            "guaranteed": rep.guaranteed,
        },
        "json",
        p.get("out"),
    )
    return 0


def cmd_accept(cfg: RunConfig) -> int:
    p = cfg.params
    only = p.get("only")
    results = acceptance.run_acceptance(
        mu_perturbation=p.get("perturb_mu", 0.0),
        echo=lambda line: print(line),
        only=None if only is None else set(only.split(",")),
    )
    summary = {
        "passed": acceptance.all_passed(results),
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    if p.get("out"):
        _write_atomic(p["out"], json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"acceptance: {'all passed' if summary['passed'] else 'FAILURES PRESENT'}")
    return 0 if summary["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctq",
        description="Total-concurrence entanglement measures, bounds and curve data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, rows=False):
        sp.add_argument("--q", type=float, default=2.0, help="measure exponent (q >= 2)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if rows:
            sp.add_argument("--format", choices=("json", "csv"), default=None)

    sp = sub.add_parser("measure", help="evaluate measures of a state file")
    sp.add_argument("state")
    add_common(sp)
    sp.add_argument("--alpha", type=float, default=0.5, help="dual-family exponent in [0, 1/2]")

    sp = sub.add_parser("bound", help="trace-norm lower bound for a state file")
    sp.add_argument("state")
    add_common(sp)

    for family in ("isotropic", "werner"):
        sp = sub.add_parser(family, help=f"emit the {family} curve as CSV")
        add_common(sp, rows=True)
        if family == "isotropic":
            sp.add_argument("--d", type=int, default=2)
        sp.add_argument("--from", dest="lo", type=float, default=0.0)
        sp.add_argument("--to", dest="hi", type=float, default=1.0)
        sp.add_argument("--step", type=float, default=1e-3)
        sp.add_argument("--normalized", dest="raw_units", action="store_false", default=False)
        sp.add_argument("--raw", dest="raw_units", action="store_true")

    sp = sub.add_parser("chain", help="chain-state measure triple and residual sweep")
    add_common(sp, rows=True)
    sp.add_argument("--from", dest="lo", type=float, default=0.0)
    sp.add_argument("--to", dest="hi", type=float, default=float(np.pi / 2))
    sp.add_argument("--step", type=float, default=0.01)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--which", choices=("ctq", "concurrence"), default="ctq")

    sp = sub.add_parser("monogamy", help="monogamy residual of a multipartite qubit state")
    sp.add_argument("state")
    add_common(sp)
    sp.add_argument("--gamma", type=float, default=1.0)

    sp = sub.add_parser("accept", help="run the acceptance suite")
    sp.add_argument("--out", default=None, help="write the JSON summary here")
    sp.add_argument("--perturb-mu", dest="perturb_mu", type=float, default=0.0,
                    help="mutation hook: scale the normalization constant by (1 + x)")
    sp.add_argument("--only", default=None,
                    help="comma-separated criterion names to run (default: all)")
    return ap


def _config_from_args(args) -> RunConfig:
    params = dict(vars(args))
    command = params.pop("command")
    if "lo" in params:
        params["from"] = params.pop("lo")
        params["to"] = params.pop("hi")
    step = params.get("step")
    if step is not None and not 1e-6 <= step <= 1e-1:
        raise CtqError(f"grid step {step} outside [1e-6, 1e-1]")
    return RunConfig(command=command, params=params)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "measure": cmd_measure,
        "bound": cmd_bound,
        "isotropic": cmd_curve_isotropic,
        "werner": cmd_curve_werner,
        "chain": cmd_chain,
        "monogamy": cmd_monogamy,
        "accept": cmd_accept,
    }
    try:
        cfg = _config_from_args(args)
        return handlers[cfg.command](cfg)
    except CtqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
