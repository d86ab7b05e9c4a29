import csv
import json
import warnings

import numpy as np
import pytest

from ctq import cli, closedform, states

from conftest import haar_pure


def run(argv):
    return cli.main(argv)


def write_state(tmp_path, state, name):
    p = tmp_path / name
    states.save_state(state, str(p))
    return str(p)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestMeasure:
    def test_bell_pure(self, tmp_path):
        f = write_state(tmp_path, states.max_entangled(2), "bell.json")
        out = tmp_path / "report.json"
        assert run(["measure", f, "--q", "2", "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["kind"] == "pure"
        assert rep["ctq_normalized"] == pytest.approx(1.0, abs=1e-12)
        assert rep["concurrence"] == pytest.approx(1.0, abs=1e-10)
        assert rep["ct_alpha"] == pytest.approx(2 * np.sqrt(2) - 2, abs=1e-10)

    def test_isotropic_density_gets_case_value(self, tmp_path):
        f = write_state(tmp_path, states.isotropic(0.9, 3), "iso.json")
        out = tmp_path / "report.json"
        assert run(["measure", f, "--q", "3", "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["family"]["name"] == "isotropic"
        assert rep["family"]["parameter"] == pytest.approx(0.9, abs=1e-10)
        assert rep["ctq_normalized"] == pytest.approx(
            closedform.ctq_isotropic(0.9, 3, 3), abs=1e-10
        )

    def test_two_qubit_density(self, tmp_path):
        f = write_state(tmp_path, states.werner(0.9, 2), "w.json")
        out = tmp_path / "report.json"
        assert run(["measure", f, "--q", "2", "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["wootters_concurrence"] == pytest.approx(0.8, abs=1e-10)
        assert rep["ctq_normalized"] == pytest.approx(0.64, abs=1e-10)
        assert rep["family"]["name"] == "werner"

    def test_generic_mixed_state_degrades_to_bound(self, tmp_path):
        rho = states.random_density((3, 3), 4, seed=77)
        f = write_state(tmp_path, rho, "mixed.json")
        out = tmp_path / "report.json"
        assert run(["measure", f, "--q", "3", "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["lower_bound_only"] is True
        assert "lower_bound_normalized" in rep

    def test_round_trip_values_stable(self, tmp_path, rng):
        psi = haar_pure((2, 3), rng)
        f1 = write_state(tmp_path, psi, "a.json")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(["measure", f1, "--q", "2.5", "--out", str(out1)])
        loaded = states.load_state(f1)
        f2 = write_state(tmp_path, loaded, "b.json")
        run(["measure", f2, "--q", "2.5", "--out", str(out2)])
        r1, r2 = read_json(out1), read_json(out2)
        assert abs(r1["ctq_normalized"] - r2["ctq_normalized"]) < 1e-12
        assert abs(r1["concurrence"] - r2["concurrence"]) < 1e-12

    def test_unequal_local_dims_degrades_to_report(self, tmp_path):
        f = write_state(tmp_path, states.random_density((2, 3), 3, 1), "mixed23.json")
        out = tmp_path / "report.json"
        assert run(["measure", f, "--q", "3", "--out", str(out)]) == 2
        rep = read_json(out)
        assert rep["lower_bound_only"] is True
        assert "equal local dimensions" in rep["error"]

    @pytest.mark.parametrize(
        "flag", [["--seed", "1"], ["--format", "json"], ["--raw"], ["--normalized"]]
    )
    def test_removed_flags_rejected(self, tmp_path, flag):
        f = write_state(tmp_path, states.max_entangled(2), "bell.json")
        with pytest.raises(SystemExit) as exc:
            run(["measure", f, *flag])
        assert exc.value.code == 2

    def test_deterministic_output(self, tmp_path):
        f = write_state(tmp_path, states.isotropic(0.8, 2), "iso2.json")
        o1, o2 = tmp_path / "d1.json", tmp_path / "d2.json"
        run(["measure", f, "--q", "2", "--out", str(o1)])
        run(["measure", f, "--q", "2", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()


class TestBound:
    def test_isotropic_bound(self, tmp_path):
        f = write_state(tmp_path, states.isotropic(0.9, 3), "iso.json")
        out = tmp_path / "b.json"
        assert run(["bound", f, "--q", "3", "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["lower_bound_normalized"] == pytest.approx((3 * 0.9 - 1) ** 2 / 4, abs=1e-9)
        assert rep["entangled_by_ppt"] is True

    def test_invalid_regime_exits_nonzero(self, tmp_path):
        f = write_state(tmp_path, states.isotropic(0.9, 2), "iso2.json")
        assert run(["bound", f, "--q", "3"]) == 2


class TestCurves:
    def test_isotropic_csv_tightness(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(
            ["isotropic", "--d", "2", "--q", "4", "--step", "0.01", "--out", str(out)]
        ) == 0
        header, rows = read_csv(out)
        assert header == ["F", "raw", "envelope", "lower_bound"]
        gaps = []
        for row in rows:
            F, env = float(row[0]), float(row[2])
            if row[3]:
                gaps.append(env - float(row[3]))
        assert min(gaps) >= -1e-9
        by_F = {float(r[0]): r for r in rows}
        assert float(by_F[0.5][2]) - float(by_F[0.5][3]) == pytest.approx(0.0, abs=1e-9)
        assert float(by_F[1.0][2]) - float(by_F[1.0][3]) == pytest.approx(0.0, abs=1e-9)

    def test_werner_csv_eof_ordering(self, tmp_path):
        out2, out8 = tmp_path / "w2.csv", tmp_path / "w8.csv"
        assert run(["werner", "--q", "2", "--step", "0.01", "--out", str(out2)]) == 0
        assert run(["werner", "--q", "8", "--step", "0.01", "--out", str(out8)]) == 0
        _, rows2 = read_csv(out2)
        _, rows8 = read_csv(out8)
        for r2, r8 in zip(rows2, rows8):
            w = float(r2[0])
            if w > 0.5 + 1e-9:
                eof = float(r2[4])
                assert float(r2[2]) <= eof + 1e-9  # low-exponent curve below the EoF
            if w > 0.7:  # EoF below the high-exponent curve away from the boundary
                assert float(r2[4]) <= float(r8[2]) + 1e-9

    def test_grid_refinement_agreement(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["isotropic", "--d", "3", "--q", "3", "--step", "0.1", "--out", str(out_a)])
        run(["isotropic", "--d", "3", "--q", "3", "--step", "0.001", "--out", str(out_b)])
        _, rows_a = read_csv(out_a)
        _, rows_b = read_csv(out_b)
        fine = {row[0]: float(row[2]) for row in rows_b}
        for row in rows_a:
            if row[0] in fine:
                assert abs(float(row[2]) - fine[row[0]]) < 5e-3

    def test_raw_units_consistent(self, tmp_path):
        from ctq import measures

        out = tmp_path / "raw.csv"
        assert run(
            ["isotropic", "--d", "2", "--q", "4", "--step", "0.05", "--raw", "--out", str(out)]
        ) == 0
        _, rows = read_csv(out)
        mu = measures.normalization_mu(2, 4)
        for row in rows:
            F, raw, env = float(row[0]), float(row[1]), float(row[2])
            if F > 0.5:
                want = mu * (7 + 4 * F * (1 - F)) / 7 * (2 * F - 1) ** 2
                assert raw == pytest.approx(want, abs=1e-9)
                assert env == pytest.approx(raw, abs=1e-9)  # convex case: no chord
            if row[3]:
                assert env - float(row[3]) >= -1e-9  # bound stays in matching units

    @pytest.mark.parametrize("q, lo, hi", [(8, 0.5, 0.8), (12, 0.6, 0.95)])
    def test_werner_subrange_envelope_is_the_measure(self, tmp_path, q, lo, hi):
        out = tmp_path / "w.csv"
        assert run(["werner", "--q", str(q), "--from", str(lo), "--to", str(hi),
                    "--step", "0.01", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            want = closedform.ctq_werner(float(row[0]), q)
            assert float(row[2]) == pytest.approx(want, abs=1e-12)

    def test_non_integer_exponent_runs_clean(self, tmp_path):
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["isotropic", "--d", "3", "--q", "2.5", "--step", "1e-3",
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows if float(r[0]) <= 1 / 3)

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(
            ["isotropic", "--d", "2", "--q", "4", "--step", "0.05", "--format", "json", "--out", str(out)]
        ) == 0
        payload = read_json(out)
        assert isinstance(payload, list) and payload[0].keys() == {"F", "raw", "envelope", "lower_bound"}


class TestChainAndMonogamy:
    def test_chain_csv(self, tmp_path):
        out = tmp_path / "chain.csv"
        assert run(
            ["chain", "--q", "4", "--gamma", "1", "--from", "0", "--to", "1.5707963",
             "--step", "0.01", "--out", str(out)]
        ) == 0
        header, rows = read_csv(out)
        assert header == ["theta", "gamma", "ctq_a_bc", "ctq_ab", "ctq_ac", "tau"]
        mid = min(rows, key=lambda r: abs(float(r[0]) - np.pi / 4))
        assert float(mid[2]) == pytest.approx(1.0, abs=1e-4)
        assert float(mid[5]) == pytest.approx(-1.0, abs=1e-4)

    def test_monogamy_command(self, tmp_path):
        a = np.zeros(8, dtype=complex)
        a[0] = a[7] = 1 / np.sqrt(2)
        f = write_state(tmp_path, states.MultipartiteState((2, 2, 2), a), "ghz.json")
        out = tmp_path / "m.json"
        assert run(["monogamy", f, "--q", "2", "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["residual"] == pytest.approx(1.0, abs=1e-10)
        assert rep["guaranteed"] is True

    def test_monogamy_rejects_bipartite(self, tmp_path):
        f = write_state(tmp_path, states.max_entangled(2), "bell.json")
        assert run(["monogamy", f, "--q", "2"]) == 2


class TestAccept:
    def test_subset_passes(self, tmp_path):
        out = tmp_path / "acc.json"
        rc = run(["accept", "--only", "isotropic-exact-d2-q3,werner-closed-form",
                  "--out", str(out)])
        assert rc == 0
        rep = read_json(out)
        assert rep["passed"] is True
        assert {c["name"] for c in rep["criteria"]} == {
            "isotropic-exact-d2-q3", "werner-closed-form",
        }

    def test_mutated_constant_fails(self, tmp_path):
        out = tmp_path / "acc.json"
        rc = run(["accept", "--perturb-mu", "1e-3", "--out", str(out),
                  "--only", "isotropic-exact-d2-q3,werner-closed-form"])
        assert rc == 1
        rep = read_json(out)
        assert rep["passed"] is False
        failing = [c["name"] for c in rep["criteria"] if not c["passed"]]
        assert "isotropic-exact-d2-q3" in failing

    def test_parse_error_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(["measure", str(bad)]) == 2

    def test_step_validation(self):
        assert run(["isotropic", "--d", "2", "--q", "4", "--step", "0.5"]) == 2

    def test_measure_rejects_multipartite(self, tmp_path):
        a = np.zeros(8, dtype=complex)
        a[0] = a[7] = 1 / np.sqrt(2)
        f = write_state(tmp_path, states.MultipartiteState((2, 2, 2), a), "ghz.json")
        assert run(["measure", f, "--q", "2"]) == 2
