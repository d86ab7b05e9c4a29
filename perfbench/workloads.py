"""The three workloads: inputs made from the seed, one round of operations, checks.

Each workload is a closed loop: one caller issues its operations one after
another, in process, through ``ctq.cli.main``.  A round is the workload's
fixed list of operations; every round of a run repeats the same list, so
every round does the same work, including the same hull-cache misses.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import checks
from ctq import cli, states


@dataclass
class Record:
    """One operation of a round: its label, latency, whether it exited 0, its output."""

    label: str
    seconds: float
    ok: bool
    output: str = ""


def _call(argv: list[str]) -> tuple[float, bool]:
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash fails this operation, not the run
        rc = -1
    return time.perf_counter() - t0, rc == 0


def _distinct(rng, lo: float, hi: float, n: int, digits: int) -> list[float]:
    """n distinct values on the grid lo, lo + 10**-digits, ..., hi."""
    scale = 10**digits
    picks = rng.choice(int(round((hi - lo) * scale)) + 1, size=n, replace=False)
    return [round(lo + int(k) / scale, digits) for k in picks]


def _points(lo: float, hi: float, step: float) -> int:
    return max(1, int(round((hi - lo) / step))) + 1


class _Workload:
    """Defaults: inputs are command-line arguments only, and every operation
    is a latency sample."""

    out: str

    def build_inputs(self) -> dict:
        """The inputs to write at set-up, built in memory."""
        return {}

    def write_inputs(self, inputs: dict) -> None:
        os.makedirs(self.out, exist_ok=True)

    def prepare(self) -> None:
        self.write_inputs(self.build_inputs())

    def latencies(self, recs: list[Record]) -> list[float]:
        return [r.seconds for r in recs]


# -- curves ------------------------------------------------------------------

CURVE_STEP = 1e-3
# 36 isotropic (d, q) keys, more than the 32 hulls ctq caches, so every
# command builds its own hull in every round, as a fresh ctq process does;
# larger d costs more per point, so it gets fewer exponents
ISO_KEYS = [(d, q) for d, top in ((2, 12), (3, 11), (4, 10), (5, 7)) for q in range(2, top + 1)]
# one fine-grid isotropic command per round, several times slower than the
# rest, so the tail percentile reads a class of its own and not the maximum
# of the 1e-3 commands
FINE_STEP, FINE_D, FINE_Q = 1e-4, 2, (13, 20)
WERNER_COMMANDS = 3
CHAIN_COMMANDS = 8


class Curves(_Workload):
    name = "curves"

    def __init__(self, seed: int, out: str):
        self.out = out
        rng = np.random.default_rng(seed)
        ops = [("isotropic", {"d": d, "q": float(q), "step": CURVE_STEP}) for d, q in ISO_KEYS]
        fine_q = float(rng.integers(FINE_Q[0], FINE_Q[1] + 1))
        ops.append(("isotropic", {"d": FINE_D, "q": fine_q, "step": FINE_STEP}))
        ops += [
            ("werner", {"q": q, "step": CURVE_STEP})
            for q in _distinct(rng, 2.0, 10.0, WERNER_COMMANDS, 3)
        ]
        ops += [
            ("chain", {"q": q, "gamma": g, "step": CURVE_STEP})
            for q, g in zip(
                _distinct(rng, 2.0, 8.0, CHAIN_COMMANDS, 3),
                _distinct(rng, 0.5, 3.0, CHAIN_COMMANDS, 3),
            )
        ]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        for kind, p in self.ops:
            hi = float(np.pi / 2) if kind == "chain" else 1.0
            p["points"] = _points(0.0, hi, p["step"])

    @staticmethod
    def _argv(kind: str, p: dict, path: str) -> list[str]:
        argv = [kind, "--q", repr(p["q"]), "--step", repr(p["step"]), "--out", path]
        if kind == "isotropic":
            argv += ["--d", str(p["d"])]
        if kind == "chain":
            argv += ["--gamma", repr(p["gamma"])]
        return argv

    def warmup(self) -> None:
        # q = 21 is outside every key of the round, so the hull cache of the
        # first round starts as cold as that of any other
        for kind in ("isotropic", "werner", "chain"):
            p = {"q": 21.0, "d": 2, "gamma": 1.0, "step": 1e-2}
            _call(self._argv(kind, p, os.path.join(self.out, "warmup.csv")))

    def run_round(self) -> list[Record]:
        recs = []
        for i, (kind, p) in enumerate(self.ops):
            path = os.path.join(self.out, f"op{i:03d}.csv")
            dt, ok = _call(self._argv(kind, p, path))
            recs.append(Record(kind, dt, ok, path))
        return recs

    def check(self, recs: list[Record]) -> list[bool]:
        good = []
        for rec, (kind, p) in zip(recs, self.ops):
            try:
                with open(rec.output, encoding="utf-8") as fh:
                    text = fh.read()
                os.unlink(rec.output)  # a later failure must not find this output
            except OSError:
                text = ""
            good.append(not checks.check_curve(kind, p, text))
        return good


# -- accept --------------------------------------------------------------------


class _EchoClock:
    """Stands in for stdout and timestamps each criterion line as it is echoed."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        if text.startswith("["):
            self.lines.append((time.perf_counter(), text))
        return len(text)

    def flush(self) -> None:
        pass


class Accept(_Workload):
    """Each criterion is one operation for attempted and failed.

    The latency samples are whole ``ctq accept`` calls instead: the criteria
    differ in size by four orders of magnitude, so a percentile over them
    reads whichever criterion happens to sit at that rank.
    """

    name = "accept"

    def __init__(self, seed: int, out: str):
        # the suite's inputs are its own fixed grids and seeds; the benchmark
        # seed has nothing to vary here
        self.out = out
        self.report = os.path.join(out, "accept.json")
        self.call_s = 0.0

    def warmup(self) -> None:
        pass

    def run_round(self) -> list[Record]:
        """One record per criterion, in the suite's order, from the echoed lines."""
        echo = _EchoClock()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(echo):
            self.call_s, _ = _call(["accept", "--out", self.report])
        seen, last = {}, t0
        for t, line in echo.lines:
            name = line.split(":", 1)[0].split(" ", 1)[-1]
            seen[name] = Record(name, t - last, True, line)
            last = t
        return [seen.get(name, Record(name, 0.0, False)) for name in checks.ACCEPTANCE_CRITERIA]

    def check(self, recs: list[Record]) -> list[bool]:
        try:
            with open(self.report, encoding="utf-8") as fh:
                report = json.load(fh)
            os.unlink(self.report)
        except (OSError, json.JSONDecodeError):
            report = {}
        passed = checks.check_accept(report, [r.output for r in recs])
        return [passed[r.label] for r in recs]

    def latencies(self, recs: list[Record]) -> list[float]:
        return [self.call_s]


# -- state-files ---------------------------------------------------------------

PURE_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4))
PURE_PER_DIMS = 6
MEASURES_PER_PURE = 9
BOUNDS_PER_PURE = 8
WISHART_2X2, MEASURES_PER_2X2 = 24, 5
WISHART_DXD_PER_D = 8
# every isotropic key with d >= 3, and d = 2 beyond q = 4, takes the envelope
# path of `measure`: 37 keys, again more than the 32-entry hull cache holds
FAMILY_ISO_KEYS = [(2, q) for q in range(5, 10)] + [(d, q) for d in range(3, 7) for q in range(2, 10)]
WERNER_KEYS = 36
FAMILY_REPEATS = 10
WERNER_SMALL_Q = 8
QUBIT_FILES = {3: 30, 4: 30, 5: 20, 6: 16, 7: 12, 8: 8, 9: 6, 10: 4, 11: 2, 12: 2}


def state_files_plan(seed: int) -> tuple[dict, list[dict]]:
    """(files, ops) of the state-files workload: constructor calls and CLI operations."""
    rng = np.random.default_rng(seed)
    files: dict[str, tuple] = {}
    ops: list[dict] = []

    def seed_():
        return int(rng.integers(1 << 31))

    def q_in(lo, hi):
        return round(float(rng.uniform(lo, hi)), 4)

    for dims in PURE_DIMS:
        for j in range(PURE_PER_DIMS):
            name = f"pure-{dims[0]}x{dims[1]}-{j}"
            files[name] = ("random_pure", dims, seed_())
            ops += [{"cmd": "measure", "file": name, "q": q_in(2, 6)} for _ in range(MEASURES_PER_PURE)]
            if dims[0] == dims[1]:
                lo = 3.4 if dims[0] == 2 else 2.0  # d = 2 bounds need q above s ~ 3.34
                ops += [{"cmd": "bound", "file": name, "q": q_in(lo, 6)} for _ in range(BOUNDS_PER_PURE)]
    for j in range(WISHART_2X2):
        name = f"wishart-2x2-{j}"
        files[name] = ("random_density", (2, 2), 1 + j % 4, seed_())
        ops += [{"cmd": "measure", "file": name, "q": q_in(2, 4)} for _ in range(MEASURES_PER_2X2)]
    for d in (3, 4):
        for j in range(WISHART_DXD_PER_D):
            name = f"wishart-{d}x{d}-{j}"
            files[name] = ("random_density", (d, d), 1 + int(rng.integers(d * d)), seed_())
            ops += [{"cmd": cmd, "file": name, "q": q_in(2, 6)} for cmd in ("measure", "measure", "bound", "bound")]
    family = []
    for d, q in FAMILY_ISO_KEYS:
        F = round(float(rng.uniform(1.0 / d + 0.01, 1.0)), 6)
        family.append(("isotropic", d, float(q), F))
    for q in _distinct(rng, 4.001, 12.0, WERNER_KEYS, 3):
        family.append(("werner", 2, q, round(float(rng.uniform(0.51, 1.0)), 6)))
    for q in _distinct(rng, 2.0, 4.0, WERNER_SMALL_Q, 3):
        family.append(("werner", 2, q, round(float(rng.uniform(0.51, 1.0)), 6)))
    family_ops = []
    for j, (kind, d, q, p) in enumerate(family):
        name = f"{kind}-{j}"
        files[name] = (kind, p, d)
        family_ops.append({"cmd": "measure", "file": name, "q": q, "family": (kind, p)})
    for k, count in QUBIT_FILES.items():
        for j in range(count):
            name = f"qubits-{k}-{j}"
            files[name] = ("random_pure", (2,) * k, seed_())
            if rng.random() < 0.8:
                q, gamma = q_in(2, 3), 1.0
            else:
                q, gamma = q_in(3, 5), q_in(0.5, 2)
            ops.append({"cmd": "monogamy", "file": name, "q": q, "gamma": gamma})
    ops += family_ops
    ops = [ops[i] for i in rng.permutation(len(ops))]
    # a repeated key right after its first use is a hull-cache hit
    hull_keys = len(FAMILY_ISO_KEYS) + WERNER_KEYS
    for j in rng.choice(hull_keys, size=FAMILY_REPEATS, replace=False):
        kind, d, q, _ = family[j]
        p = round(float(rng.uniform(1.0 / d + 0.01 if kind == "isotropic" else 0.51, 1.0)), 6)
        name = f"{kind}-{j}-again"
        files[name] = (kind, p, d)
        at = ops.index(family_ops[j]) + 1
        ops.insert(at, {"cmd": "measure", "file": name, "q": q, "family": (kind, p)})
    return files, ops


class StateFiles(_Workload):
    name = "state-files"

    def __init__(self, seed: int, out: str):
        self.corpus = os.path.join(out, "corpus")
        self.reports = os.path.join(out, "reports")
        self.files, self.ops = state_files_plan(seed)
        self.inputs: dict[str, dict] = {}

    def build_inputs(self) -> dict:
        """Every state of the plan, from ctq's constructors."""
        return {name: getattr(states, ctor)(*args) for name, (ctor, *args) in self.files.items()}

    def write_inputs(self, inputs: dict) -> None:
        os.makedirs(self.corpus, exist_ok=True)
        for name, state in inputs.items():
            states.save_state(state, os.path.join(self.corpus, name + ".json"))

    def _argv(self, op: dict, path: str) -> list[str]:
        argv = [op["cmd"], os.path.join(self.corpus, op["file"] + ".json"), "--q", repr(op["q"])]
        if op["cmd"] == "monogamy":
            argv += ["--gamma", repr(op["gamma"])]
        return argv + ["--out", path]

    def warmup(self) -> None:
        os.makedirs(self.reports, exist_ok=True)
        for name in self.files:
            with open(os.path.join(self.corpus, name + ".json"), encoding="utf-8") as fh:
                self.inputs[name] = checks.read_state(json.load(fh))
        path = os.path.join(self.reports, "warmup.json")
        first = {}
        for op in self.ops:
            if "family" not in op and len(self.inputs[op["file"]]["dims"]) <= 4:
                first.setdefault((op["cmd"], op["file"].split("-")[0]), op)
        for op in first.values():
            _call(self._argv(op, path))

    def run_round(self) -> list[Record]:
        recs = []
        for i, op in enumerate(self.ops):
            path = os.path.join(self.reports, f"op{i:04d}.json")
            dt, ok = _call(self._argv(op, path))
            recs.append(Record(op["cmd"], dt, ok, path))
        return recs

    def check(self, recs: list[Record]) -> list[bool]:
        good = []
        for rec, op in zip(recs, self.ops):
            try:
                with open(rec.output, encoding="utf-8") as fh:
                    report = json.load(fh)
                os.unlink(rec.output)  # a later failure must not find this report
            except (OSError, json.JSONDecodeError):
                good.append(False)
                continue
            good.append(not checks.check_state_op(op, self.inputs[op["file"]], report))
        return good


WORKLOADS = {w.name: w for w in (Curves, Accept, StateFiles)}
