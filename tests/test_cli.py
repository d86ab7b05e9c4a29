import csv
import json
import warnings

import numpy as np
import pytest

from ctq import bounds, cli, closedform, states
from ctq.exceptions import ExponentOutsideTheoremRange

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

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("alpha", ["7", "nan"])
    def test_density_alpha_out_of_range(self, tmp_path, dims, alpha, capsys):
        # checked for every input, not only where a pure state uses it
        f = write_state(tmp_path, states.random_density(dims, 4, seed=77), "mixed.json")
        out = tmp_path / "report.json"
        assert run(["measure", f, "--q", "3", "--alpha", alpha, "--out", str(out)]) == 2
        assert "error: alpha must lie in [0, 1/2]" in capsys.readouterr().err
        assert not out.exists()

    def test_pure_state_takes_one_svd(self, tmp_path, rng, monkeypatch):
        f = write_state(tmp_path, haar_pure((3, 3), rng), "pure.json")
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert run(["measure", f, "--q", "3", "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1

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

    def test_consecutive_calls_share_no_state(self, tmp_path):
        # the flags of one call, of another subcommand, do not reach the next
        f = write_state(tmp_path, states.max_entangled(2), "bell.json")
        w1, w2, m1, m2 = (tmp_path / n for n in ("w1.csv", "w2.csv", "m1.json", "m2.json"))
        assert run(["werner", "--q", "3", "--step", "0.05", "--out", str(w1)]) == 0
        assert run(["measure", f, "--out", str(m1)]) == 0
        assert run(["isotropic", "--d", "3", "--q", "4", "--raw", "--format", "json",
                    "--from", "0.5", "--step", "0.1", "--out", str(tmp_path / "i.json")]) == 0
        assert run(["measure", f, "--q", "3", "--alpha", "0.2", "--out", str(tmp_path / "m.json")]) == 0
        assert run(["werner", "--q", "3", "--step", "0.05", "--out", str(w2)]) == 0
        assert run(["measure", f, "--out", str(m2)]) == 0
        assert w1.read_bytes() == w2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()


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

    def test_refuses_multipartite_before_building_the_density(self, tmp_path, monkeypatch, capsys):
        a = np.zeros(8, dtype=complex)
        a[0] = a[7] = 1 / np.sqrt(2)
        f = write_state(tmp_path, states.MultipartiteState((2, 2, 2), a), "ghz.json")
        monkeypatch.setattr(states.MultipartiteState, "density",
                            lambda self: pytest.fail("density built"))
        assert run(["bound", f, "--q", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: bound handles bipartite states; "
            "use the monogamy command for multipartite input\n"
        )


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

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("q", [3, 3.5, 5])  # on both sides of s ~ 3.34
    def test_isotropic_bound_column_is_the_state_bound(self, tmp_path, d, q):
        # the closed-form column, N = max(1, d F), against two SVD trace norms
        out = tmp_path / "c.csv"
        assert run(["isotropic", "--d", str(d), "--q", str(q), "--step", "0.01",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            rho = states.isotropic(float(row[0]), d)
            if d == 2 and q < bounds.s_threshold():
                assert row[3] == ""
                with pytest.raises(ExponentOutsideTheoremRange):
                    bounds.lower_bound_thm2(rho, q)
            else:
                want = bounds.lower_bound_thm2(rho, q).lower_bound_normalized
                assert float(row[3]) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("q", [3, 3.5, 5])
    def test_werner_bound_column_is_the_state_bound(self, tmp_path, q):
        # the d = 2 Werner state is locally the isotropic state with F = w
        out = tmp_path / "w.csv"
        assert run(["werner", "--q", str(q), "--step", "0.01", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            rho = states.werner(float(row[0]), 2)
            if q < bounds.s_threshold():
                assert row[3] == ""
                with pytest.raises(ExponentOutsideTheoremRange):
                    bounds.lower_bound_thm2(rho, q)
            else:
                want = bounds.lower_bound_thm2(rho, q).lower_bound_normalized
                assert float(row[3]) == pytest.approx(want, abs=1e-12)

    def test_separable_cells_print_zero(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["isotropic", "--d", "3", "--q", "3", "--step", "1e-3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(r[3] == "0" for r in rows if float(r[0]) <= 1 / 3)

    @pytest.mark.parametrize("command", [["isotropic", "--d", "3"], ["werner"]], ids=["isotropic", "werner"])
    def test_normalized_flag_removed(self, tmp_path, command):
        # normalized units are the default; --raw is the only unit flag
        with pytest.raises(SystemExit) as exc:
            run(command + ["--normalized", "--step", "0.1", "--out", str(tmp_path / "c.csv")])
        assert exc.value.code == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(
            ["isotropic", "--d", "2", "--q", "4", "--step", "0.05", "--format", "json", "--out", str(out)]
        ) == 0
        payload = read_json(out)
        assert isinstance(payload, list) and payload[0].keys() == {"F", "raw", "envelope", "lower_bound"}

    @pytest.mark.parametrize(
        "command",
        [["isotropic", "--d", "3", "--q", "3"], ["werner", "--q", "2"],
         ["chain", "--q", "3", "--gamma", "1.5"]],
        ids=["isotropic", "werner", "chain"],
    )
    def test_json_rows_are_the_csv_rows(self, tmp_path, command):
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        assert run(command + ["--step", "0.05", "--out", str(csv_out)]) == 0
        assert run(command + ["--step", "0.05", "--format", "json", "--out", str(json_out)]) == 0
        header, rows = read_csv(csv_out)
        assert read_json(json_out) == [dict(zip(header, row)) for row in rows]

    def test_csv_bytes(self, tmp_path):
        # \r\n line ends and no quoting; below s ~ 3.34 the d = 2 bound cells are empty
        out = tmp_path / "c.csv"
        assert run(["isotropic", "--d", "2", "--q", "3", "--from", "0.5", "--to", "0.7",
                    "--step", "0.1", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"F,raw,envelope,lower_bound\r\n0.5,0,0,\r\n0.6,0.04,0.04,\r\n0.7,0.16,0.16,\r\n"
        )


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

    def test_chain_non_integer_gamma_at_small_angles(self, tmp_path):
        # cos^2 rounds to 1 below theta ~ 1e-8, where 1 - a^2q - b^2q is -b^2q
        out = tmp_path / "chain.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["chain", "--q", "2.5", "--gamma", "1.3", "--from", "0", "--to", "1e-8",
                        "--step", "1e-6", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[3] for r in rows] == ["0", "0"]
        assert all(np.isfinite(float(r[5])) for r in rows)

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

    def test_monogamy_refuses_q_below_two(self, tmp_path, capsys):
        a = np.zeros(8, dtype=complex)
        a[0] = a[7] = 1 / np.sqrt(2)
        f = write_state(tmp_path, states.MultipartiteState((2, 2, 2), a), "ghz.json")
        assert run(["monogamy", f, "--q", "1.5", "--out", str(tmp_path / "m.json")]) == 2
        assert "error: need q >= 2, got 1.5" in capsys.readouterr().err


class TestRefusedInputs:
    """Non-finite exponents and reversed or non-finite ranges exit 2 with an
    error line instead of printing NaN columns or descending rows."""

    @pytest.mark.parametrize(
        "command", [["isotropic", "--d", "3"], ["werner"], ["chain"]], ids=["isotropic", "werner", "chain"]
    )
    @pytest.mark.parametrize("q", ["nan", "inf"])
    def test_non_finite_exponent(self, command, q, capsys):
        assert run(command + ["--q", q, "--step", "0.01"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_chain_gamma_nan(self, capsys):
        assert run(["chain", "--q", "3", "--gamma", "nan", "--step", "0.01"]) == 2
        assert "error: gamma must be positive, got nan" in capsys.readouterr().err

    def test_monogamy_gamma_nan(self, tmp_path, capsys):
        a = np.zeros(8, dtype=complex)
        a[0] = a[7] = 1 / np.sqrt(2)
        f = write_state(tmp_path, states.MultipartiteState((2, 2, 2), a), "ghz.json")
        assert run(["monogamy", f, "--q", "2", "--gamma", "nan"]) == 2
        assert "error: gamma must be positive, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["isotropic", "--d", "3", "--q", "3"], ["werner", "--q", "3"], ["chain", "--q", "3"]],
        ids=["isotropic", "werner", "chain"],
    )
    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--from", "1", "--to", "0.5"], "need a finite --to >= --from = 1.0, got 0.5"),
            (["--from", "nan"], "--from must be finite, got nan"),
            (["--to", "inf"], "need a finite --to >= --from = 0.0, got inf"),
        ],
        ids=["reversed", "from-nan", "to-inf"],
    )
    def test_reversed_or_non_finite_range(self, command, bounds, message, capsys):
        assert run(command + bounds + ["--step", "0.01"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["measure", "bound"])
    @pytest.mark.parametrize(
        "kind, entries, value",
        [("pure", [0], "NaN"), ("density", [0], "NaN"), ("density", [1, 4], "Infinity")],
        ids=["pure-nan", "density-nan", "density-inf"],
    )
    def test_non_finite_state_file(self, tmp_path, command, kind, entries, value, capsys):
        # Python's json writes and reads NaN and Infinity; the state constructors refuse them
        obj = states.state_to_dict(states.max_entangled(2) if kind == "pure" else states.werner(0.3, 2))
        for i in entries:
            obj["re"][i] = float(value)
        f = tmp_path / "state.json"
        f.write_text(json.dumps(obj))
        assert value in f.read_text()
        assert run([command, str(f), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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
