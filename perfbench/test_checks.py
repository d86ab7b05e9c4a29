"""Each workload's checker passes ctq's real output and fails a corrupted copy."""

import json
import os

import pytest

import checks
import workloads


def _corrupt_csv_cell(path, row, col, delta=1e-6):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind, col", [("isotropic", 2), ("werner", 1), ("chain", 2)])
def test_curves_checker_fails_a_perturbed_cell(tmp_path, kind, col):
    wl = workloads.Curves(seed=1, out=str(tmp_path))
    i = next(j for j, (k, _) in enumerate(wl.ops) if k == kind)
    wl.ops = wl.ops[i : i + 1]
    wl.prepare()
    assert wl.check(wl.run_round()) == [True]
    recs = wl.run_round()
    _corrupt_csv_cell(recs[0].output, row=900, col=col)
    assert wl.check(recs) == [False]


def _accept_output(wl):
    report = {
        "passed": True,
        "criteria": [
            {"name": n, "passed": True, "detail": "ok"} for n in checks.ACCEPTANCE_CRITERIA
        ],
    }
    with open(wl.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return [
        workloads.Record(n, 0.1, True, f"[PASS] {n}: ok") for n in checks.ACCEPTANCE_CRITERIA
    ]


def test_accept_checker_fails_a_perturbed_report_field(tmp_path):
    wl = workloads.Accept(seed=1, out=str(tmp_path))
    wl.prepare()
    assert wl.check(_accept_output(wl)) == [True] * 13
    recs = _accept_output(wl)
    with open(wl.report, encoding="utf-8") as fh:
        report = json.load(fh)
    report["criteria"][7]["passed"] = False
    with open(wl.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert wl.check(recs) == [True] * 7 + [False] + [True] * 5


def test_accept_checker_fails_a_missing_criterion(tmp_path):
    wl = workloads.Accept(seed=1, out=str(tmp_path))
    wl.prepare()
    recs = _accept_output(wl)
    recs[3] = workloads.Record(recs[3].label, 0.0, False)
    assert wl.check(recs)[3] is False


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    wl = workloads.StateFiles(seed=1, out=str(tmp_path_factory.mktemp("state-files")))
    wl.prepare()
    wl.warmup()
    return wl


@pytest.mark.parametrize(
    "select, field, delta",
    [
        (lambda op: op["cmd"] == "measure" and op["file"].startswith("pure"), "ctq_normalized", 1e-6),
        (lambda op: op["file"].startswith("wishart-2x2"), "wootters_concurrence", 1e-5),
        (lambda op: op["file"].startswith("wishart-3x3"), "realign_norm", 1e-6),
        (lambda op: op["cmd"] == "bound" and op["file"].startswith("pure"), "ppt_norm", 1e-6),
        (lambda op: op["cmd"] == "monogamy" and op["file"].startswith("qubits-4"), "lhs", 1e-6),
        # family values are checked against properties only: [0, 1], at most
        # the raw curve, at least the trace-norm bound
        (lambda op: "family" in op and op["family"][0] == "isotropic", "ctq_normalized", 1.0),
    ],
)
def test_state_files_checker_fails_a_perturbed_report_field(state_files, select, field, delta):
    op = next(op for op in state_files.ops if select(op))
    saved = state_files.ops
    state_files.ops = [op]
    try:
        assert state_files.check(state_files.run_round()) == [True]
        recs = state_files.run_round()
        with open(recs[0].output, encoding="utf-8") as fh:
            report = json.load(fh)
        report[field] += delta
        with open(recs[0].output, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        assert state_files.check(recs) == [False]
        assert not os.path.exists(recs[0].output)
    finally:
        state_files.ops = saved
