"""Command-line front end.

Subcommands: ``measure`` and ``bound`` evaluate a bipartite state file,
``isotropic`` and ``werner`` emit curve tables, ``chain`` sweeps the
chain-state residual, ``monogamy`` checks a multipartite qubit state, and
``accept`` runs the acceptance suite.  Reports are JSON, tables are CSV or
JSON rows; output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from . import acceptance, bounds, closedform, measures, monogamy, states
from .exceptions import CtqError, ExponentOutsideTheoremRange, UnequalLocalDims, check_range


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


def _emit(payload, out: str | None) -> None:
    _write_atomic(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_table(args: argparse.Namespace, header: list[str], columns: list[list[str]]) -> None:
    """Printed cells, one list per column: CSV rows comma-joined with \\r\\n ends
    (no cell needs quoting), or with --format json a list of row objects."""
    rows = list(zip(*columns))
    if args.format == "json":
        _emit([dict(zip(header, row)) for row in rows], args.out)
    else:
        _write_atomic(args.out, "".join(",".join(row) + "\r\n" for row in [header, *rows]))


def _cells(values, spec: str = ".12g") -> list[str]:
    return [format(v, spec) for v in np.asarray(values).tolist()]


def _grid(args: argparse.Namespace) -> np.ndarray:
    """The points --from, --from + --step, ..., --to, once the three are checked."""
    check_range(args.step, "grid step {} outside [1e-6, 1e-1]", 1e-6, 1e-1, slack=0.0)
    check_range(args.lo, "--from must be finite, got {}")
    check_range(args.hi, f"need a finite --to >= --from = {args.lo}, got {{}}", args.lo, slack=0.0)
    n = max(1, int(round((args.hi - args.lo) / args.step)))
    return np.linspace(args.lo, args.hi, n + 1)


def _load_bipartite(args: argparse.Namespace):
    state = states.load_state(args.state)
    if isinstance(state, states.MultipartiteState):
        raise CtqError(f"{args.command} handles bipartite states; "
                       "use the monogamy command for multipartite input")
    return state


def cmd_measure(args: argparse.Namespace) -> int:
    check_range(args.alpha, "alpha must lie in [0, 1/2], got {}", 0.0, 0.5)
    state = _load_bipartite(args)
    q = args.q
    report: dict = {"file": args.state, "q": q, "alpha": args.alpha}
    if isinstance(state, states.PureState):
        lam = states.schmidt_spectrum(state)
        report.update(
            {
                "kind": "pure",
                "dims": list(state.dims),
                "schmidt_spectrum": lam.tolist(),
                "q_concurrence": measures.q_concurrence_pure(lam, q),
                "total_concurrence_raw": measures.total_concurrence_pure(lam, q),
                "ctq_normalized": measures.ctq_pure(lam, q),
                "ct_alpha": measures.ct_alpha_pure(lam, args.alpha),
                "concurrence": measures.concurrence_pure(lam),
            }
        )
    else:
        report["kind"] = "density"
        report["dims"] = list(state.dims)
        family = _detect_family(state)
        if state.dims == (2, 2) and 2.0 - 1e-12 <= q <= 4.0 + 1e-12:
            c = measures.wootters_concurrence_2qubit(state)
            value = measures.ctq_two_qubit_mixed(state, q)
            report.update(
                {
                    "wootters_concurrence": c,
                    "ctq_normalized": value,
                    "ctq_raw": value * measures.normalization_mu(2, q),
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
            report["lower_bound_only"] = True
            try:
                report.update(dataclasses.asdict(bounds.lower_bound_thm2(state, q)))
            except (ExponentOutsideTheoremRange, UnequalLocalDims) as exc:
                report["error"] = str(exc)
                _emit(report, args.out)
                return 2
    _emit(report, args.out)
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


def cmd_bound(args: argparse.Namespace) -> int:
    state = _load_bipartite(args)
    if isinstance(state, states.PureState):
        state = states.DensityMatrix(state.dims, state.density())
    rep = bounds.lower_bound_thm2(state, args.q)
    _emit({"file": args.state, "q": args.q, "d": state.dims[0], **dataclasses.asdict(rep)},
          args.out)
    return 0


def _bound_column(N: np.ndarray, q: float, d: int, scale: float) -> list[str]:
    """Printed Thm-2 bounds for the trace norms N; empty where no bound applies."""
    try:
        return _cells(bounds.thm2_bound(N, q, d) * scale)
    except ExponentOutsideTheoremRange:  # exponent below the d = 2 threshold
        return [""] * N.size


def cmd_curve_isotropic(args: argparse.Namespace) -> int:
    """Both trace norms of the isotropic state are max(1, d F)."""
    grid = _grid(args)
    d, q = args.d, args.q
    scale = measures.normalization_mu(d, q) if args.raw else 1.0
    raw = closedform.zeta_isotropic(grid, q, d, normalized=not args.raw)
    env = closedform.ctq_isotropic(grid, q, d) * scale
    bound = _bound_column(np.maximum(1.0, d * grid), q, d, scale)
    _emit_table(args, ["F", "raw", "envelope", "lower_bound"],
                [_cells(grid, ".10g"), _cells(raw), _cells(env), bound])
    return 0


def cmd_curve_werner(args: argparse.Namespace) -> int:
    """The envelope column is the measure at each w, whatever the range.  The
    d = 2 Werner state is locally equivalent to the isotropic state with F = w,
    so both its trace norms are max(1, 2 w)."""
    grid = _grid(args)
    q = args.q
    scale = measures.normalization_mu(2, q) if args.raw else 1.0
    raw = closedform.zeta_werner(grid, q, normalized=not args.raw)
    env = closedform.ctq_werner(grid, q) * scale
    bound = _bound_column(np.maximum(1.0, 2.0 * grid), q, 2, scale)
    eof = closedform.eof_werner(grid)
    _emit_table(args, ["w", "raw", "envelope", "lower_bound", "eof"],
                [_cells(grid, ".10g"), _cells(raw), _cells(env), bound, _cells(eof)])
    return 0


def cmd_chain(args: argparse.Namespace) -> int:
    grid = _grid(args)
    triple = monogamy.chain_ctq(grid, args.q)
    measure = triple if args.which == "ctq" else monogamy.chain_concurrence(grid)
    tau = monogamy.chain_residual(measure, args.gamma)
    _emit_table(args, ["theta", "gamma", "ctq_a_bc", "ctq_ab", "ctq_ac", "tau"],
                [_cells(grid, ".10g"), [f"{args.gamma:.10g}"] * grid.size,
                 *map(_cells, triple), _cells(tau)])
    return 0


def cmd_monogamy(args: argparse.Namespace) -> int:
    state = states.load_state(args.state)
    if not isinstance(state, states.MultipartiteState):
        raise CtqError("monogamy requires a state with at least three parties")
    rep = monogamy.monogamy_check(state, args.q, args.gamma)
    _emit({"file": args.state, "q": args.q, "gamma": args.gamma, **dataclasses.asdict(rep)},
          args.out)
    return 0


def cmd_accept(args: argparse.Namespace) -> int:
    results = acceptance.run_acceptance(
        mu_perturbation=args.perturb_mu,
        echo=lambda line: print(line),
        only=None if args.only is None else set(args.only.split(",")),
    )
    passed = acceptance.all_passed(results)
    if args.out:
        _emit({"passed": passed, "criteria": [dataclasses.asdict(r) for r in results]}, args.out)
    print(f"acceptance: {'all passed' if passed else 'FAILURES PRESENT'}")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctq",
        description="Total-concurrence entanglement measures, bounds and curve data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, run, rows=False):
        sp.set_defaults(run=run)
        sp.add_argument("--q", type=float, default=2.0, help="measure exponent (q >= 2)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if rows:
            sp.add_argument("--format", choices=("json", "csv"), default=None)

    sp = sub.add_parser("measure", help="evaluate measures of a state file")
    sp.add_argument("state")
    add_common(sp, cmd_measure)
    sp.add_argument("--alpha", type=float, default=0.5, help="dual-family exponent in [0, 1/2]")

    sp = sub.add_parser("bound", help="trace-norm lower bound for a state file")
    sp.add_argument("state")
    add_common(sp, cmd_bound)

    for family, run in (("isotropic", cmd_curve_isotropic), ("werner", cmd_curve_werner)):
        sp = sub.add_parser(family, help=f"emit the {family} curve as CSV")
        add_common(sp, run, rows=True)
        if family == "isotropic":
            sp.add_argument("--d", type=int, default=2)
        sp.add_argument("--from", dest="lo", type=float, default=0.0)
        sp.add_argument("--to", dest="hi", type=float, default=1.0)
        sp.add_argument("--step", type=float, default=1e-3)
        sp.add_argument("--raw", action="store_true")

    sp = sub.add_parser("chain", help="chain-state measure triple and residual sweep")
    add_common(sp, cmd_chain, rows=True)
    sp.add_argument("--from", dest="lo", type=float, default=0.0)
    sp.add_argument("--to", dest="hi", type=float, default=float(np.pi / 2))
    sp.add_argument("--step", type=float, default=0.01)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--which", choices=("ctq", "concurrence"), default="ctq")

    sp = sub.add_parser("monogamy", help="monogamy residual of a multipartite qubit state")
    sp.add_argument("state")
    add_common(sp, cmd_monogamy)
    sp.add_argument("--gamma", type=float, default=1.0)

    sp = sub.add_parser("accept", help="run the acceptance suite")
    sp.set_defaults(run=cmd_accept)
    sp.add_argument("--out", default=None, help="write the JSON summary here")
    sp.add_argument("--perturb-mu", dest="perturb_mu", type=float, default=0.0,
                    help="mutation hook: scale the normalization constant by (1 + x)")
    sp.add_argument("--only", default=None,
                    help="comma-separated criterion names to run (default: all)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CtqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
