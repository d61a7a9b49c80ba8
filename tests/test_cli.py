import csv
import json
from pathlib import Path

import numpy as np
import pytest

from oqwalk import asymptotics, channel, cli, simulate, structure
from oqwalk.cli import InputError, main
from oqwalk.structure import DiagonalState
from util import random_irreducible_model, slow_swap_walk

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def scale_absorption(monkeypatch, factor: float) -> None:
    """Make ``structure.absorption`` return every operator times ``factor``."""
    real = structure.absorption

    def scaled(model, enclosure):
        op = real(model, enclosure)
        return structure.AbsorptionOperator(op.enclosure, factor * op.matrix)

    monkeypatch.setattr(structure, "absorption", scaled)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestValidate:
    def test_fixture_passes(self, tmp_path):
        assert main(["validate", "--model", fixture("four_state_p3_sixth.json")]) == 0

    def test_broken_model_rejected(self, tmp_path):
        data = json.loads(Path(fixture("two_state.json")).read_text())
        data["kraus"][0][0][0] = [0.9, 0.0]  # breaks normalization
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--model", str(bad)]) == 2

    def test_incomplete_absorption_is_numerical_failure(self, monkeypatch, capsys):
        scale_absorption(monkeypatch, 4.0)
        assert main(["validate", "--model", fixture("four_state_p3_sixth.json")]) == 3
        assert "absorption operators do not sum to the identity" in capsys.readouterr().err

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


    def test_library_value_error_is_not_input_error(self, tmp_path, monkeypatch, capsys):
        def broken(model, seed=0):
            raise ValueError("bug inside the library")

        monkeypatch.setattr(structure, "decompose", broken)
        with pytest.raises(ValueError, match="bug inside the library"):
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

    def test_unresolved_fixed_space_is_numerical_failure(self, tmp_path, capsys):
        model = tmp_path / "slow_swap.json"
        slow_swap_walk(1e-8).save(model)
        assert main(["analyze", "--model", str(model), "--out", str(tmp_path / "out")]) == 3
        assert "too close to 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_one_mixture_serves_every_horizon(self, tmp_path, monkeypatch):
        real, calls = asymptotics.clt_mixture, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(asymptotics, "clt_mixture", counting)
        rc = main([
            "clt",
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_balanced.json"),
            "--steps", "50,600",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert len(calls) == 1
        for n in (50, 600):
            data = json.loads((tmp_path / f"mixture_n{n}.json").read_text())
            assert data["horizon"] == n
            assert data["components"][1]["mean"] == pytest.approx([-np.sqrt(n) / 3], abs=1e-6)

    def test_invalid_covariance_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(asymptotics, "diffusion", lambda *args: np.array([[-1.0]]))
        rc = main([
            "clt",
            "--model", fixture("two_state.json"),
            "--state", fixture("state_two_recurrent.json"),
            "--steps", "10",
            "--out", str(tmp_path),
        ])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

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

    def test_tracks_name_the_enclosures_analyze_reports(self, tmp_path):
        # every trajectory starts in e0, so each track reads Tr(A e0 e0*),
        # the weight that analyze reports for the same block or enclosure,
        # whatever the trajectory seed
        model = fixture("four_state_p3_sixth.json")
        state = fixture("state_four_transient.json")
        assert main(["analyze", "--model", model, "--state", state, "--out", str(tmp_path)]) == 0
        weights = json.loads((tmp_path / "analysis.json").read_text())["weights"]
        expected = {
            "y_block-0/min-0": weights["block-0"]["enclosures"][0],
            "y_block-1": weights["block-1"]["block"],
        }
        columns = []
        for seed in ("0", "42"):
            out = tmp_path / f"seed{seed}"
            assert main([
                "simulate", "--model", model, "--state", state, "--steps", "0",
                "--traj", "20", "--seed", seed,
                "--enclosure-track", "block-0/min-0,block-1", "--out", str(out),
            ]) == 0
            header, rows = read_csv(out / "ensemble_n0.csv")
            tracks = {name: [r[j] for r in rows] for j, name in enumerate(header) if "y_" in name}
            assert tracks.keys() == expected.keys()
            for name, values in tracks.items():
                assert all(abs(float(v) - expected[name]) <= 1e-12 for v in values)
            columns.append(tracks)
        assert columns[0] == columns[1]

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

    def test_one_run_serves_every_horizon(self, tmp_path, monkeypatch):
        base = [
            "simulate",
            "--model", fixture("four_state_p3_sixth.json"),
            "--state", fixture("state_four_transient.json"),
            "--traj", "300",
            "--seed", "5",
            "--y-stride", "10",
            "--enclosure-track", "block-1",
        ]
        configs, real = [], simulate.run

        def counting_run(model, rho, config, *args, **kwargs):
            configs.append(config)
            return real(model, rho, config, *args, **kwargs)

        monkeypatch.setattr(simulate, "run", counting_run)
        assert main(base + ["--steps", "7,40,40", "--out", str(tmp_path / "all")]) == 0
        assert [c.steps for c in configs] == [40]
        cut, alone = tmp_path / "all", tmp_path / "one"
        for n in (7, 40):
            assert main(base + ["--steps", str(n), "--out", str(alone)]) == 0
            name = f"ensemble_n{n}.csv"
            assert (cut / name).read_bytes() == (alone / name).read_bytes()
            manifests = [json.loads((d / f"manifest_n{n}.json").read_text()) for d in (cut, alone)]
            for m in manifests:
                m.pop("wall_time_seconds")
            assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("command", ["simulate", "clt"])
    def test_empty_horizon_list_is_input_error(self, tmp_path, capsys, command):
        rc = main([
            command,
            "--model", fixture("two_state.json"),
            "--state", fixture("state_two_recurrent.json"),
            "--steps", ",",
            "--out", str(tmp_path / "out"),
        ] + (["--traj", "10"] if command == "simulate" else []))
        assert rc == 1
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "clt"])
    def test_negative_horizon_writes_nothing(self, tmp_path, capsys, command):
        rc = main([
            command,
            "--model", fixture("two_state.json"),
            "--state", fixture("state_two_recurrent.json"),
            "--steps", "5,-3",
            "--out", str(tmp_path / "out"),
        ] + (["--traj", "10"] if command == "simulate" else []))
        assert rc == 1
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "track", ["block-7", "block-0/min-7", "block-0/min-x", "block-0/min--1", "block-0/min-01"]
    )
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
        scale_absorption(monkeypatch, 4.0)
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

    def test_lattice_dimension_mismatch(self, tmp_path, capsys):
        planar = tmp_path / "planar"
        model, state = tmp_path / "model.json", tmp_path / "state.json"
        random_irreducible_model(5, local_dim=2, lattice_dim=2).save(model)
        DiagonalState.single_site(np.eye(2) / 2, site=(0, 0)).save(state)
        assert main([
            "simulate", "--model", str(model), "--state", str(state),
            "--steps", "10", "--traj", "20", "--out", str(planar),
        ]) == 0
        assert main([
            "clt", "--model", fixture("two_state.json"),
            "--state", fixture("state_two_recurrent.json"),
            "--steps", "10", "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "compare",
            "--ensemble", str(planar / "ensemble_n10.csv"),
            "--prediction", str(tmp_path / "mixture_n10.json"),
            "--axis", "1,0",
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "lattice dimension" in capsys.readouterr().err

    def test_ensemble_without_trajectories_is_input_error(self, tmp_path, capsys):
        """A header line without rows, and a 0-byte file, are input errors
        for both commands that read ensembles."""
        self._produce(tmp_path)
        path = tmp_path / "ensemble_n30.csv"
        header = path.read_text().splitlines()[0] + "\n"
        commands = [
            ["compare", "--prediction", str(tmp_path / "mixture_n30.json")],
            [
                "ldp",
                "--model", fixture("four_state_p3_sixth.json"),
                "--state", fixture("state_four_balanced.json"),
                "--grid=0.0:0.5:0.5",
                "--interval", "0.1,0.2",
            ],
        ]
        for text in (header, ""):
            path.write_text(text)
            for command in commands:
                capsys.readouterr()
                rc = main(command + ["--ensemble", str(path), "--out", str(tmp_path / command[0])])
                assert rc == 1
                err = capsys.readouterr().err
                assert f"input error: {path}: ValueError: no trajectories" in err

    def test_invalid_prediction_is_input_error(self, tmp_path, capsys):
        self._produce(tmp_path)
        path = tmp_path / "mixture_n30.json"
        data = json.loads(path.read_text())
        data["components"][0]["covariance"] = [[-1.0]]
        path.write_text(json.dumps(data))
        rc = main([
            "compare",
            "--ensemble", str(tmp_path / "ensemble_n30.csv"),
            "--prediction", str(path),
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "input error" in capsys.readouterr().err

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
        # the interval bounds (X_n/n)·axis; the sweep points are x = t·axis,
        # so with axis 2 only t = 0.1 (x = 0.2, projection 0.4) lies in it
        for axis, count in ((1.0, 3), (2.0, 1)):
            out = tmp_path / f"axis_{axis:g}"
            rc = main([
                "ldp", *base,
                "--grid=0.0:0.9:0.1",
                "--ensemble", str(tmp_path / "ensemble_n60.csv"),
                "--interval", "0.3,0.5",
                *([] if axis == 1.0 else ["--axis", f"{axis:g}"]),
                "--out", str(out),
            ])
            assert rc == 0
            header, rows = read_csv(out / "ldp_decay.csv")
            assert header == ["n", "log_freq_over_n", "rate_bound"]
            assert rows[0][0] == "60"
            # the bound column is minus the lowest swept rate whose point
            # projects into the interval
            _, sweep = read_csv(out / "rate_sweep.csv")
            in_band = [
                float(r[1]) for r in sweep if 0.3 - 1e-9 <= axis * float(r[0]) <= 0.5 + 1e-9
            ]
            assert len(in_band) == count
            assert float(rows[0][2]) == -min(in_band)


class TestInputErrors:
    """Each malformed argument exits 1 as an input error before any output
    is written."""

    BASE = [
        "--model", fixture("commuting_diag.json"),
        "--state", fixture("state_commuting_mixed.json"),
    ]
    REQUIRED = {
        "analyze": [],
        "clt": ["--steps", "10"],
        "ldp": ["--grid=0:0.2:0.1"],
        "simulate": ["--steps", "10", "--traj", "10"],
    }

    def run(self, tmp_path, capsys, command, *argv, base=BASE):
        rc = main([command, *base, *argv, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:0.1", "1:0:0.1"])
    @pytest.mark.parametrize("command", ["clt", "ldp"])
    def test_grid_that_is_not_finite_or_increasing(self, tmp_path, capsys, command, grid):
        argv = ["--steps", "10"] if command == "clt" else []
        err = self.run(tmp_path, capsys, command, *argv, f"--grid={grid}")
        assert "input error: --grid" in err

    @pytest.mark.parametrize("command", ["clt", "ldp"])
    def test_grid_with_too_many_points(self, tmp_path, capsys, command):
        # 10^15 points; allocating them would fail with a MemoryError
        argv = ["--steps", "10"] if command == "clt" else []
        err = self.run(tmp_path, capsys, command, *argv, "--grid=0:1e12:1e-3")
        assert "input error: --grid" in err and "more than" in err
        last = (cli.GRID_MAX_POINTS - 1) * 1e-3
        assert len(cli._parse_grid(f"0:{last}:1e-3")) == cli.GRID_MAX_POINTS
        with pytest.raises(InputError):
            cli._parse_grid(f"0:{last + 1e-3}:1e-3")

    @pytest.mark.parametrize("grid", ["0:1", "0:x:0.1", "0:1:0.1:2"])
    def test_unparsable_grid(self, tmp_path, capsys, grid):
        assert "input error: --grid" in self.run(tmp_path, capsys, "ldp", f"--grid={grid}")

    def test_unparsable_axis(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "ldp", "--grid=0:0.2:0.1", "--axis", "x")
        assert "input error: --axis" in err

    @pytest.mark.parametrize("interval", ["0.3", "0.3,x", "0.1,0.2,0.3"])
    def test_unparsable_interval(self, tmp_path, capsys, interval):
        err = self.run(
            tmp_path, capsys, "ldp", "--grid=0:0.2:0.1",
            "--ensemble", str(tmp_path / "ensemble_n10.csv"), "--interval", interval,
        )
        assert "input error: --interval" in err

    @pytest.mark.parametrize("interval", ["nan,0.5", "0.5,0.1", "inf,inf"])
    def test_interval_that_is_not_finite_or_increasing(self, tmp_path, capsys, interval):
        err = self.run(
            tmp_path, capsys, "ldp", "--grid=0:0.2:0.1",
            "--ensemble", str(tmp_path / "ensemble_n10.csv"), "--interval", interval,
        )
        assert "input error: --interval: need finite lo <= hi" in err

    @pytest.mark.parametrize(
        "argv", [["--ensemble", "missing/ensemble_n10.csv"], ["--interval", "0.1,0.2"]]
    )
    def test_ldp_decay_flag_alone(self, tmp_path, capsys, argv):
        # either flag alone used to be dropped without a word
        err = self.run(tmp_path, capsys, "ldp", "--grid=0:0.2:0.1", *argv)
        assert "input error: --ensemble and --interval go together" in err

    def test_non_integer_horizon(self, tmp_path, capsys):
        assert "input error: --steps" in self.run(tmp_path, capsys, "clt", "--steps", "10,x")

    @pytest.mark.parametrize(
        "argv",
        [["--traj", "0"], ["--traj", "10", "--y-stride", "0"], ["--traj", "4294967297"]],
    )
    def test_zero_simulation_setting(self, tmp_path, capsys, argv):
        # 2**32 + 1 trajectories would take a stream index of 2**32
        err = self.run(tmp_path, capsys, "simulate", "--steps", "10", *argv)
        assert "input error: --traj/--y-stride/--seed" in err

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_negative_seed(self, tmp_path, capsys, command):
        # only simulate takes a seed; the other commands refuse the option
        err = self.run(tmp_path, capsys, command, *self.REQUIRED[command], "--seed", "-1")
        if command == "simulate":
            assert "input error: --traj/--y-stride/--seed" in err
            assert "seed must be an integer >= 0, got -1" in err
        else:
            assert "unrecognized arguments: --seed" in err

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_state_of_another_model(self, tmp_path, capsys, command):
        base = ["--model", fixture("two_state.json"), "--state", fixture("state_four_transient.json")]
        err = self.run(tmp_path, capsys, command, *self.REQUIRED[command], base=base)
        assert "the model needs 2x2" in err

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_state_that_is_no_density_once_normalized(self, tmp_path, capsys, command):
        # the site at 1 deviates from Hermitian by 5e-11 absolutely, by 7e-8
        # once divided by its trace 1e-3
        small = np.diag([1e-3, 0.0]).astype(complex)
        small[0, 1] = 5e-11
        entries = [([0], np.diag([0.999, 0.0]).astype(complex)), ([1], small)]
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"entries": [
            {"site": site, "matrix": channel.matrix_to_json(mat)} for site, mat in entries
        ]}))
        base = ["--model", fixture("two_state.json"), "--state", str(state)]
        err = self.run(tmp_path, capsys, command, *self.REQUIRED[command], base=base)
        assert "input error" in err and "site (1,) over its trace" in err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_state_with_entries_that_are_not_finite(self, tmp_path, capsys, command, bad):
        # json writes and reads these as NaN and Infinity
        data = json.loads(Path(fixture("state_two_recurrent.json")).read_text())
        data["entries"][0]["matrix"][0][0][0] = bad
        state = tmp_path / "state.json"
        state.write_text(json.dumps(data))
        base = ["--model", fixture("two_state.json"), "--state", str(state)]
        err = self.run(tmp_path, capsys, command, *self.REQUIRED[command], base=base)
        assert "input error" in err and "entries must be finite" in err

    @pytest.mark.parametrize(
        "sites, message",
        [
            ([[0], [1.9]], "site (1.9,): coordinates must be integers"),
            ([[0.5], [0]], "site (0.5,): coordinates must be integers"),
            ([[1], [1.0]], "site (1,) is given twice"),
        ],
        ids=["fraction", "fraction-onto-0", "twice"],
    )
    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_state_sites_that_are_not_distinct_integers(
        self, tmp_path, capsys, command, sites, message
    ):
        half = channel.matrix_to_json(np.diag([0.5, 0.0]))
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"entries": [{"site": s, "matrix": half} for s in sites]}))
        base = ["--model", fixture("two_state.json"), "--state", str(state)]
        err = self.run(tmp_path, capsys, command, *self.REQUIRED[command], base=base)
        assert "input error" in err and message in err

    @pytest.mark.parametrize(
        "site, message",
        [(True, "site (True,): coordinates"), (1e30, "site (1e+30,): coordinates")],
        ids=["bool", "1e30"],
    )
    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_state_sites_that_are_not_int64_integers(
        self, tmp_path, capsys, command, site, message
    ):
        # true is not site 1, and 1e30 does not fit the simulator's int64
        # positions: every command refuses both before any work
        half = channel.matrix_to_json(np.diag([0.5, 0.0]))
        entries = [{"site": [0], "matrix": half}, {"site": [site], "matrix": half}]
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"entries": entries}))
        base = ["--model", fixture("two_state.json"), "--state", str(state)]
        err = self.run(tmp_path, capsys, command, *self.REQUIRED[command], base=base)
        assert "input error" in err and message in err and "int64 range" in err

    def test_positions_that_could_wrap(self, tmp_path, capsys):
        # 40 unit steps from 2^63 - 8 could pass the int64 maximum: the run is
        # refused before any step, where it once wrote wrapped end positions
        far = channel.matrix_to_json(np.diag([0.0, 1.0]))
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"entries": [{"site": [2**63 - 8], "matrix": far}]}))
        base = ["--model", fixture("two_state.json"), "--state", str(state)]
        argv = ["--steps", "40", "--traj", "64", "--seed", "3"]
        err = self.run(tmp_path, capsys, "simulate", *argv, base=base)
        assert "input error" in err and "int64 maximum" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("shifts", 1.7),
            ("shifts", "2"),
            ("shifts", True),
            ("shifts", 1e30),
            ("lattice_dim", 1.5),
        ],
        ids=["fraction", "string", "bool", "1e30", "fractional-dim"],
    )
    def test_model_coordinates_that_are_not_int64_integers(self, tmp_path, capsys, key, value):
        # no value is cast (1.7 is not shift 1), and 1e30 does not fit in
        # int64: validate and every command refuse each before any work
        data = json.loads(Path(fixture("two_state.json")).read_text())
        if key == "shifts":
            data["shifts"][1][0] = value
        else:
            data["lattice_dim"] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))
        assert main(["validate", "--model", str(model)]) == 1
        assert "input error" in capsys.readouterr().err
        base = ["--model", str(model), "--state", fixture("state_two_recurrent.json")]
        for command in sorted(self.REQUIRED):
            err = self.run(tmp_path, capsys, command, *self.REQUIRED[command], base=base)
            message = "shift coordinates" if key == "shifts" else "lattice_dim"
            assert "input error" in err and f"{message} must be integers in the int64 range" in err

    def test_one_prediction_per_ensemble(self, tmp_path, capsys):
        err = self.run(
            tmp_path, capsys, "compare",
            "--ensemble", f"{tmp_path}/a.csv,{tmp_path}/b.csv",
            "--prediction", f"{tmp_path}/a.json", base=[],
        )
        assert "input error: need one prediction file" in err

    @pytest.mark.parametrize("planar, steps", [(True, "10"), (False, "0")])
    def test_ldp_ensemble_that_does_not_fit(self, tmp_path, capsys, planar, steps):
        # a planar ensemble for a model on Z, or one of zero steps, whose
        # decay rate (1/n) log P would divide by zero
        ens, base = tmp_path / "ens", self.BASE
        if planar:
            model, state = tmp_path / "model.json", tmp_path / "state.json"
            random_irreducible_model(5, local_dim=2, lattice_dim=2).save(model)
            DiagonalState.single_site(np.eye(2) / 2, site=(0, 0)).save(state)
            base = ["--model", str(model), "--state", str(state)]
        assert main([
            "simulate", *base, "--steps", steps, "--traj", "20", "--out", str(ens),
        ]) == 0
        capsys.readouterr()
        err = self.run(
            tmp_path, capsys, "ldp", "--grid=0:0.2:0.1",
            "--ensemble", str(ens / f"ensemble_n{steps}.csv"), "--interval", "0.1,0.2",
        )
        assert "input error: --ensemble" in err


class TestMalformedInputExitCodes:
    """The exit-code matrix of malformed model, state, ensemble, prediction
    and axis inputs: each exits with its documented code (2 for a model that
    is not trace preserving, 1 for the rest) before any output is written."""

    BASE, REQUIRED = TestInputErrors.BASE, TestInputErrors.REQUIRED

    def run(self, tmp_path, capsys, code, command, *argv, base=BASE):
        assert main([command, *base, *argv, "--out", str(tmp_path / "out")]) == code
        assert not (tmp_path / "out").exists()
        return capsys.readouterr().err

    @staticmethod
    def write_run(tmp_path, rows=("0,2", "0,-2"), steps=4, **spoil):
        """A one-dimensional ensemble of ``steps`` steps, its manifest and a
        one-component prediction at that horizon, with the prediction's
        entries overridden by ``spoil``; returns the ensemble and prediction
        paths."""
        ens, pred = tmp_path / "ensemble_n4.csv", tmp_path / "mixture_n4.json"
        ens.write_text("x0_1,x_1\n" + "\n".join(rows) + "\n")
        (tmp_path / "manifest_n4.json").write_text(json.dumps({"steps": steps}))
        component = {"weight": 1.0, "mean_rate": [0.0], "covariance": [[1.0]]}
        prediction = {"horizon": steps, "components": [component]}
        for key, value in spoil.items():
            (prediction if key in prediction else component)[key] = value
        pred.write_text(json.dumps(prediction))
        return ens, pred

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_model_that_is_not_trace_preserving(self, tmp_path, capsys, command):
        # validate exits 2 as well (TestValidate); the other commands used to
        # run on, and simulate wrote an ensemble
        data = json.loads(Path(fixture("two_state.json")).read_text())
        data["kraus"] = (1.2 * np.array(data["kraus"])).tolist()
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))
        base = ["--model", str(model), "--state", fixture("state_two_recurrent.json")]
        err = self.run(tmp_path, capsys, 2, command, *self.REQUIRED[command], base=base)
        assert "model validation failed: Kraus normalization off by" in err

    @pytest.mark.parametrize(
        "spoil, message",
        [
            ({"components": []}, "a mixture needs at least one component"),
            ({"weight": float("nan")}, "weights must be finite"),
            ({"covariance": [[float("nan")]]}, "mean rate and covariance must be finite"),
            ({"mean_rate": [float("inf")]}, "mean rate and covariance must be finite"),
            ({"horizon": -4}, "horizon -4 is negative"),
            ({"horizon": 4.7}, "horizon 4.7 is not an integer"),
            ({"horizon": True}, "horizon true is not an integer"),
        ],
        ids=[
            "no-components",
            "nan-weight",
            "nan-covariance",
            "inf-mean-rate",
            "negative-horizon",
            "fractional-horizon",
            "bool-horizon",
        ],
    )
    def test_prediction_that_is_not_a_finite_mixture(self, tmp_path, capsys, spoil, message):
        ens, pred = self.write_run(tmp_path, **spoil)
        argv = ["--ensemble", str(ens), "--prediction", str(pred)]
        err = self.run(tmp_path, capsys, 1, "compare", *argv, base=[])
        assert "input error" in err and message in err

    @pytest.mark.parametrize(
        "rows, steps, message",
        [
            (("0,2", "0,nan"), 4, "positions must be finite integers"),
            (("0,2", "0,0.5"), 4, "positions must be finite integers"),
            (("0,2", "0,-2"), -4, "steps -4 is negative"),
            (("0,2", "0,-2"), 4.9, "steps 4.9 is not an integer"),
            (("0,2", "0,-2"), True, "steps true is not an integer"),
            (("0,2", "0,-2"), "4", 'steps "4" is not an integer'),
        ],
        ids=[
            "nan", "fraction", "negative-steps", "fractional-steps", "bool-steps", "string-steps"
        ],
    )
    @pytest.mark.parametrize("command", ["compare", "ldp"])
    def test_ensemble_that_is_not_integer_positions(
        self, tmp_path, capsys, command, rows, steps, message
    ):
        ens, pred = self.write_run(tmp_path, rows, steps)
        if command == "compare":
            argv, base = ["--ensemble", str(ens), "--prediction", str(pred)], []
        else:
            argv = ["--grid=0:0.2:0.1", "--ensemble", str(ens), "--interval", "0.1,0.2"]
            base = self.BASE
        err = self.run(tmp_path, capsys, 1, command, *argv, base=base)
        assert "input error" in err and message in err

    def test_second_ensemble_refused_before_any_distance(self, tmp_path, capsys):
        # compare reads every ensemble and prediction before it prints or
        # writes the first distance
        (tmp_path / "good").mkdir()
        ens, pred = self.write_run(tmp_path / "good")
        bad_ens, bad_pred = self.write_run(tmp_path, steps=-4)
        argv = ["--ensemble", f"{ens},{bad_ens}", "--prediction", f"{pred},{bad_pred}"]
        assert main(["compare", *argv, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "steps -4 is negative" in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, axis", [("clt", "nan"), ("ldp", "nan"), ("ldp", "inf"), ("compare", "nan")]
    )
    def test_axis_that_is_not_finite(self, tmp_path, capsys, command, axis):
        argv, base = self.REQUIRED.get(command, []), self.BASE
        if command == "compare":
            ens, pred = self.write_run(tmp_path)
            argv, base = ["--ensemble", str(ens), "--prediction", str(pred)], []
        err = self.run(tmp_path, capsys, 1, command, *argv, "--axis", axis, base=base)
        assert "input error: --axis" in err and "axis entries must be finite" in err

    def test_sweep_points_that_overflow(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, 1, "ldp", "--grid=1e300:1e300:1", "--axis", "1e10")
        assert "input error: --grid/--axis: the sweep points are not finite" in err

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_state_sites_of_two_lattice_dimensions(self, tmp_path, capsys, command):
        half = channel.matrix_to_json(np.diag([0.5, 0.0]))
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"entries": [{"site": s, "matrix": half} for s in ([0], [0, 1])]}))
        base = ["--model", fixture("two_state.json"), "--state", str(state)]
        err = self.run(tmp_path, capsys, 1, command, *self.REQUIRED[command], base=base)
        assert "site (0, 1): all sites must share one lattice dimension" in err
