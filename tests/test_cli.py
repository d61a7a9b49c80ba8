import csv
import json
from pathlib import Path

import numpy as np
import pytest

from oqwalk import structure
from oqwalk.cli import main
from oqwalk.structure import DiagonalState
from util import random_irreducible_model

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestValidate:
    def test_fixture_passes(self, tmp_path):
        rc = main(["validate", "--model", fixture("four_state_p3_sixth.json"),
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_broken_model_rejected(self, tmp_path):
        data = json.loads(Path(fixture("two_state.json")).read_text())
        data["kraus"][0][0][0] = [0.9, 0.0]  # breaks normalization
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--model", str(bad)]) == 2

    def test_missing_file(self):
        assert main(["validate", "--model", "no_such_file.json"]) == 1

    def test_unparsable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--model", str(bad)]) == 1

    def test_missing_key_is_input_error(self, tmp_path, capsys):
        data = json.loads(Path(fixture("two_state.json")).read_text())
        del data["shifts"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--model", str(bad)]) == 1
        assert "input error" in capsys.readouterr().err

    def test_library_type_error_is_not_input_error(self, tmp_path, monkeypatch, capsys):
        def broken(model, seed=0):
            raise TypeError("bug inside the library")

        monkeypatch.setattr(structure, "decompose", broken)
        with pytest.raises(TypeError, match="bug inside the library"):
            main(["analyze", "--model", fixture("two_state.json"), "--out", str(tmp_path)])
        assert "input error" not in capsys.readouterr().err


class TestAnalyze:
    def test_four_state_report(self, tmp_path):
        rc = main([
            "analyze",
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_transient.json"),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["transient"]["dim"] == 1
        assert [b["dim"] for b in report["blocks"]] == [2, 1]
        assert [b["multiplicity"] for b in report["blocks"]] == [2, 1]
        weights = report["weights"]
        assert weights["block-1"]["block"] == pytest.approx(1 / 3, abs=1e-9)

    def test_two_state_report(self, tmp_path):
        rc = main(["analyze", "--model", fixture("two_state.json"), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["transient"]["dim"] == 1
        assert [b["dim"] for b in report["blocks"]] == [1]

    def test_commuting_report(self, tmp_path):
        rc = main(["analyze", "--model", fixture("commuting_diag.json"), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["transient"]["dim"] == 0
        assert sorted(b["multiplicity"] for b in report["blocks"]) == [1, 2]

    def test_unverified_absorption_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(structure, "_absorption_defect", lambda *args: 1.0)
        rc = main([
            "analyze",
            "--model", fixture("four_state_p3_sixth.json"),
            "--out", str(tmp_path),
        ])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


class TestAxis:
    """An --axis with the wrong number of components, or none when d > 1,
    is an input error."""

    BASE = [
        "--model", fixture("two_state.json"),
        "--state", fixture("state_two_recurrent.json"),
    ]

    def test_clt(self, tmp_path, capsys):
        rc = main(["clt", *self.BASE, "--steps", "10", "--axis", "1,0", "--out", str(tmp_path)])
        assert rc == 1
        assert "input error" in capsys.readouterr().err

    def test_ldp(self, tmp_path, capsys):
        rc = main(["ldp", *self.BASE, "--grid=0:0.2:0.1", "--axis", "1,0", "--out", str(tmp_path)])
        assert rc == 1
        assert "input error" in capsys.readouterr().err

    def test_compare(self, tmp_path, capsys):
        base = [*self.BASE, "--steps", "10", "--out", str(tmp_path)]
        assert main(["clt", *base]) == 0
        assert main(["simulate", *base, "--traj", "20"]) == 0
        capsys.readouterr()
        rc = main([
            "compare",
            "--ensemble", str(tmp_path / "ensemble_n10.csv"),
            "--prediction", str(tmp_path / "mixture_n10.json"),
            "--axis", "1,0",
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "input error" in capsys.readouterr().err

    def test_missing_in_two_dimensions(self, tmp_path, capsys):
        model, state = tmp_path / "model.json", tmp_path / "state.json"
        random_irreducible_model(5, local_dim=2, lattice_dim=2).save(model)
        DiagonalState.single_site(np.eye(2) / 2, site=(0, 0)).save(state)
        rc = main([
            "ldp", "--model", str(model), "--state", str(state),
            "--grid=0:0.2:0.1", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "input error" in capsys.readouterr().err


class TestClt:
    def test_balanced_mixture(self, tmp_path):
        rc = main([
            "clt",
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_balanced.json"),
            "--steps", "600",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        data = json.loads((tmp_path / "mixture_n600.json").read_text())
        assert data["horizon"] == 600
        comps = sorted(data["components"], key=lambda c: -c["weight"])
        assert comps[0]["weight"] == pytest.approx(2 / 3, abs=1e-9)
        assert comps[0]["mean_rate"] == pytest.approx([0.0], abs=1e-9)
        assert comps[0]["covariance"][0][0] == pytest.approx(1.0, abs=1e-9)
        assert comps[1]["weight"] == pytest.approx(1 / 3, abs=1e-9)
        assert comps[1]["mean"] == pytest.approx([-np.sqrt(600) / 3], abs=1e-6)
        assert comps[1]["covariance"][0][0] == pytest.approx(8 / 9, abs=1e-9)
        header, rows = read_csv(tmp_path / "clt_cdf_n600.csv")
        assert header == ["x", "F_mix"]
        assert len(rows) > 100

    def test_single_component_from_transient_start(self, tmp_path):
        # p1 = p2 = 0: starting at e0 everything lands in the drifting block
        rc = main([
            "clt",
            "--model", fixture("four_state_p3_half.json"),
            "--state", fixture("state_four_transient.json"),
            "--steps", "100",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        data = json.loads((tmp_path / "mixture_n100.json").read_text())
        assert len(data["components"]) == 1
        comp = data["components"][0]
        assert comp["mean_rate"] == pytest.approx([-1 / 3], abs=1e-9)
        assert comp["covariance"][0][0] == pytest.approx(8 / 9, abs=1e-9)


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        argv = [
            "simulate",
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_transient.json"),
            "--steps", "40",
            "--traj", "500",
            "--seed", "42",
            "--y-stride", "10",
            "--enclosure-track", "block-1",
        ]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "ensemble_n40.csv").read_bytes()
        b = (tmp_path / "b" / "ensemble_n40.csv").read_bytes()
        assert a == b
        header, rows = read_csv(tmp_path / "a" / "ensemble_n40.csv")
        assert header == ["x0_1", "x_1", "y_block-1"]
        assert len(rows) == 500
        manifest = json.loads((tmp_path / "a" / "manifest_n40.json").read_text())
        assert manifest["steps"] == 40
        assert manifest["tracks"] == ["block-1"]

    def test_zero_steps_yields_zero_displacement(self, tmp_path):
        rc = main([
            "simulate",
            "--model", fixture("two_state.json"),
            "--state", fixture("state_two_recurrent.json"),
            "--steps", "0",
            "--traj", "50",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        _, rows = read_csv(tmp_path / "ensemble_n0.csv")
        assert all(r[0] == r[1] for r in rows)

    @pytest.mark.parametrize("track", ["block-7", "block-0/min-7", "block-0/min-x"])
    def test_unknown_track_is_input_error(self, tmp_path, track):
        rc = main([
            "simulate",
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_transient.json"),
            "--steps", "5",
            "--traj", "10",
            "--enclosure-track", track,
            "--out", str(tmp_path),
        ])
        assert rc == 1


    def test_track_out_of_range_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # an absorption operator scaled past the identity starts the
        # transient state's track at 4/3
        real = structure.absorption

        def scaled(model, enclosure):
            op = real(model, enclosure)
            return structure.AbsorptionOperator(op.enclosure, 4.0 * op.matrix)

        monkeypatch.setattr(structure, "absorption", scaled)
        rc = main([
            "simulate",
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_transient.json"),
            "--steps", "5",
            "--traj", "10",
            "--enclosure-track", "block-1",
            "--out", str(tmp_path),
        ])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


class TestCompare:
    def _produce(self, tmp_path, steps="30"):
        base = [
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_balanced.json"),
            "--out", str(tmp_path),
        ]
        assert main(["clt"] + base + ["--steps", steps]) == 0
        assert main(["simulate"] + base + ["--steps", steps, "--traj", "2000", "--seed", "3"]) == 0

    def test_matched_horizons(self, tmp_path):
        self._produce(tmp_path)
        rc = main([
            "compare",
            "--ensemble", str(tmp_path / "ensemble_n30.csv"),
            "--prediction", str(tmp_path / "mixture_n30.json"),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        header, rows = read_csv(tmp_path / "distances.csv")
        assert header == ["n", "N", "w1", "ks"]
        assert rows[0][0] == "30" and rows[0][1] == "2000"
        assert 0 <= float(rows[0][2]) < 0.5

    def test_horizon_mismatch(self, tmp_path):
        self._produce(tmp_path, steps="30")
        assert main([
            "clt",
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_balanced.json"),
            "--steps", "60",
            "--out", str(tmp_path),
        ]) == 0
        rc = main([
            "compare",
            "--ensemble", str(tmp_path / "ensemble_n30.csv"),
            "--prediction", str(tmp_path / "mixture_n60.json"),
            "--out", str(tmp_path),
        ])
        assert rc == 1


class TestLdp:
    def test_recurrent_fixture_is_exact(self, tmp_path):
        rc = main([
            "ldp",
            "--model", fixture("commuting_diag.json"),
            "--state", fixture("state_commuting_mixed.json"),
            "--grid=-0.6:0.6:0.2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        header, rows = read_csv(tmp_path / "rate_sweep.csv")
        assert header == ["x_1", "Lambda", "ustar_1", "block_id", "label"]
        assert all(r[-1] == "exact-LDP" for r in rows)

    def test_transient_fixture_is_bounds_only(self, tmp_path):
        rc = main([
            "ldp",
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_transient.json"),
            "--grid=-0.4:0.4:0.4",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        _, rows = read_csv(tmp_path / "rate_sweep.csv")
        assert all(r[-1] == "bounds-only" for r in rows)

    def test_grid_hits_zero_at_the_drift(self, tmp_path):
        rc = main([
            "ldp",
            "--model", fixture("commuting_diag.json"),
            "--state", fixture("state_commuting_mixed.json"),
            "--grid=0.4:0.4:1.0",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        _, rows = read_csv(tmp_path / "rate_sweep.csv")
        assert abs(float(rows[0][1])) <= 1e-8

    def test_decay_table(self, tmp_path):
        base = [
            "--model", fixture("commuting_diag.json"),
            "--state", fixture("state_commuting_mixed.json"),
            "--out", str(tmp_path),
        ]
        assert main(["simulate"] + base + ["--steps", "60", "--traj", "3000", "--seed", "2"]) == 0
        rc = main([
            "ldp", *base,
            "--grid=0.0:0.9:0.1",
            "--ensemble", str(tmp_path / "ensemble_n60.csv"),
            "--interval", "0.3,0.5",
        ])
        assert rc == 0
        header, rows = read_csv(tmp_path / "ldp_decay.csv")
        assert header == ["n", "log_freq_over_n", "rate_bound"]
        assert rows[0][0] == "60"
