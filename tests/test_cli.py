"""Exit codes, output artifacts, and diagnostics of the command-line surface."""

import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from celab.cli import _training_config, build_parser, main
from celab.equilibrium import correlated_equilibrium_program
from celab.training import TrainingConfig

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CHICKEN = "fixtures/chicken.json"
COORDINATION = "fixtures/coordination_2x2.json"
MIRROR = "fixtures/mirror_2x2.json"


@pytest.fixture()
def fx(fixtures_dir):
    return lambda name: str(fixtures_dir / name)


def run_cli(*args, env=None):
    """`python -m celab.cli ARGS` in a subprocess that imports this
    checkout's celab, whether or not it is installed or on PYTHONPATH."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "celab.cli", *args], env=env, capture_output=True, text=True
    )


def write_game(path, payoffs):
    data = {
        "players": list(payoffs),
        "decisions": {p: ["A", "B"] for p in payoffs},
        "payoffs": payoffs,
    }
    path.write_text(json.dumps(data))
    return str(path)


class TestSolve:
    def test_ce_zero_mass_on_mutually_worst_cell(self, fx, tmp_path, capsys):
        out = tmp_path / "ce.json"
        code = main(["solve", fx("chicken.json"), "--mode", "ce", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "ce"
        assert payload["deviation_check"]["ok"]
        assert payload["distribution"][3] == pytest.approx(0.0, abs=1e-12)
        assert payload["reproducibility"]["command"] == "solve"
        assert "welfare" in capsys.readouterr().out

    def test_ne_lists_three_chicken_equilibria(self, fx, tmp_path):
        out = tmp_path / "ne.json"
        code = main(["solve", fx("chicken.json"), "--mode", "ne", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        kinds = sorted(e["kind"] for e in payload["equilibria"])
        assert kinds == ["mixed", "pure", "pure"]

    def test_hull_verdicts(self, fx, tmp_path, capsys):
        out = tmp_path / "hull.json"
        code = main(
            [
                "solve", fx("chicken.json"), "--mode", "hull",
                "--point", "0.3333333", "0.3333333",
                "--point", "0.3", "0.3",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [v["inside"] for v in payload["points"]] == [False, True]
        text = capsys.readouterr().out
        assert "outside" in text and "inside" in text

    def test_hull_requires_a_point(self, fx, tmp_path):
        out = tmp_path / "hull.json"
        code = main(["solve", fx("chicken.json"), "--mode", "hull", "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_hull_rejects_a_non_finite_point(self, fx, tmp_path, capsys, value):
        out = tmp_path / "hull.json"
        code = main(["solve", fx("chicken.json"), "--mode", "hull",
                     "--point", value, "0.5", "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_hull_without_equilibria_exits_2_with_one_error_line(self, tmp_path, capsys):
        # rock-paper-scissors: no pure equilibrium, and a 3x3 view has no
        # mixed one enumerated, so the hull has no points
        beats = np.array([[1, 0, 2], [2, 1, 0], [0, 2, 1]]) / 9
        game = tmp_path / "rps.json"
        game.write_text(json.dumps({
            "players": ["p1", "p2"],
            "decisions": {"p1": ["R", "P", "S"], "p2": ["R", "P", "S"]},
            "payoffs": {"p1": beats.ravel().tolist(), "p2": (2 / 9 - beats).ravel().tolist()},
        }))
        out = tmp_path / "out"
        code = main(["solve", str(game), "--mode", "hull", "--point", "0.1", "0.1",
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: hull test needs at least one equilibrium payoff"]
        assert not out.exists()

    def test_malformed_file_diagnoses_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"players": ["p1","p2"],\n "decisions"\n}')
        code = main(["solve", str(bad), "--mode", "ce", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_game_file_that_is_not_utf8_exits_2_with_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"players": ["\xff"]}')
        out = tmp_path / "x"
        code = main(["solve", str(bad), "--mode", "ce", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read game file {bad}: ")
        assert not out.exists()

    def test_missing_payoff_entry(self, tmp_path, capsys):
        game = write_game(tmp_path / "g.json", {"p1": [0.5, 0.0, 0.1, 0.4], "p2": None})
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps([0.25] * 4))
        inputs = sorted(tmp_path.iterdir())
        out = ["--out-dir", str(tmp_path / "out")]
        for argv in (
            ["solve", game, "--mode", "ce", *out],
            ["train", game, "--epochs", "1", *out],
            ["estimate", game, "--known-player", "p2", "--distribution", str(dist), *out],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.splitlines() == [
                "error: payoff vector for 'p2' is unknown"
            ]
            assert sorted(tmp_path.iterdir()) == inputs

    def test_three_player_ce_matches_highs(self, fx, three_player, tmp_path, capsys):
        scipy_opt = pytest.importorskip("scipy.optimize")
        out = tmp_path / "ce.json"
        assert main(["solve", fx("three_player.json"), "--mode", "ce", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["players"] == ["p1", "p2", "p3"]
        assert payload["outcomes"][:2] == ["A,A,A", "A,A,B"]
        assert payload["deviation_check"]["ok"]
        assert "of p1 vs p2 vs p3:" in capsys.readouterr().out
        lp = correlated_equilibrium_program(three_player)
        ref = scipy_opt.linprog(
            -lp.objective, A_ub=lp.ineq_rows, b_ub=lp.ineq_rhs,
            A_eq=lp.eq_rows, b_eq=lp.eq_rhs, method="highs",
        )
        assert payload["welfare"] == pytest.approx(-ref.fun, abs=1e-7)

    def test_three_player_ne_lists_four_pure_equilibria(self, fx, tmp_path):
        out = tmp_path / "ne.json"
        assert main(["solve", fx("three_player.json"), "--mode", "ne", "--out", str(out)]) == 0
        cells = [
            [s.index(1.0) for s in eq["strategies"]]
            for eq in json.loads(out.read_text())["equilibria"]
        ]
        assert cells == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_three_player_hull_takes_three_value_points(self, fx, tmp_path, capsys):
        out = tmp_path / "hull.json"
        code = main(["solve", fx("three_player.json"), "--mode", "hull",
                     "--point", "0.46", "0.46", "0.46", "--point", "0.5", "0.5", "0.5",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["equilibrium_payoffs"]) == 4
        assert [v["inside"] for v in payload["points"]] == [True, False]
        assert "payoff point (0.46, 0.46, 0.46) is inside" in capsys.readouterr().out

    def test_ce_with_a_tiny_violation_writes_valid_json(self, tmp_path, monkeypatch):
        import celab.equilibrium
        from celab.lp import LPSolution

        # an LP point that misses one deviation row by about 9e-17, inside the
        # check's tolerance; the check's verdict must still serialize. The
        # point is a literal, so the premise does not depend on which vertex
        # the simplex picks.
        rng = np.random.default_rng(7)
        u = rng.random((2, 4))
        u /= u.sum(axis=1, keepdims=True)
        point = LPSolution(status="optimal", x=np.array([0.0, 1.0, 0.0, 3.330669073875469e-16]),
                           objective=0.7923154945118368)
        monkeypatch.setattr(celab.equilibrium, "solve_lp", lambda lp: point)
        game = write_game(tmp_path / "g.json", {"p1": u[0].tolist(), "p2": u[1].tolist()})
        out = tmp_path / "ce.json"
        assert main(["solve", game, "--mode", "ce", "--out", str(out)]) == 0
        check = json.loads(out.read_text())["deviation_check"]
        assert check["ok"] is True
        assert 0.0 < check["max_violation"] < 1e-9

    def test_failed_ce_solve_exits_3_with_one_error_line(
        self, fx, tmp_path, capsys, monkeypatch
    ):
        import celab.equilibrium
        from celab.lp import LPSolution

        # an "optimal" point mass on (D, D), which both players leave
        wrong = LPSolution(status="optimal", x=np.array([0.0, 0.0, 0.0, 1.0]), objective=0.0)
        monkeypatch.setattr(celab.equilibrium, "solve_lp", lambda lp: wrong)
        out = tmp_path / "ce.json"
        assert main(["solve", fx("chicken.json"), "--mode", "ce", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: correlated-equilibrium solve failed: ")
        assert "deviation check" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_cycling_ce_solve_exits_3_with_one_error_line(self, tmp_path, capsys):
        from oracles import random_square_payoffs

        # the simplex repeats a basis on this 6x6 game's CE program
        u = random_square_payoffs(6003, 6)
        menu = [f"a{i + 1}" for i in range(6)]
        game = tmp_path / "g.json"
        game.write_text(json.dumps({
            "players": ["p1", "p2"],
            "decisions": {"p1": menu, "p2": menu},
            "payoffs": {"p1": u[0].tolist(), "p2": u[1].tolist()},
        }))
        out = tmp_path / "ce.json"
        assert main(["solve", str(game), "--mode", "ce", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: correlated-equilibrium solve failed: simplex cycled: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_unserializable_payload_leaves_no_file(self, tmp_path):
        from celab.cli import _write_json

        out = tmp_path / "x.json"
        with pytest.raises(TypeError):
            _write_json(out, {"value": object()}, force=False)
        assert not out.exists()

    def test_refuses_overwrite_without_force(self, fx, tmp_path):
        out = tmp_path / "ce.json"
        assert main(["solve", fx("chicken.json"), "--out", str(out)]) == 0
        assert main(["solve", fx("chicken.json"), "--out", str(out)]) == 2
        assert main(["solve", fx("chicken.json"), "--out", str(out), "--force"]) == 0


class TestTrain:
    def test_epoch_cap_exits_nonzero_but_writes_artifacts(self, fx, tmp_path):
        code = main(
            ["train", fx("coordination_2x2.json"), "--seed", "0",
             "--epochs", "1", "--out-dir", str(tmp_path)]
        )
        assert code == 3
        for name in (
            "train_history.csv",
            "train_checkpoint_p1.json",
            "train_checkpoint_p2.json",
            "train_p_tilde.json",
        ):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "train_p_tilde.json").read_text())
        assert summary["stable"] is False
        assert summary["epochs_run"] == 1
        np.testing.assert_allclose(sum(summary["p_tilde"]), 1.0, atol=1e-9)

    def test_history_header_carries_config_and_seed(self, fx, tmp_path):
        main(
            ["train", fx("coordination_2x2.json"), "--seed", "11",
             "--epochs", "1", "--out-dir", str(tmp_path)]
        )
        first, second = (tmp_path / "train_history.csv").read_text().splitlines()[:2]
        assert first.startswith("# ")
        meta = json.loads(first[2:])
        assert meta["seed"] == 11
        assert meta["config"]["epochs"] == 1
        assert second == "epoch,player,mean_terminal_reward,rho_1,rho_2,rho_3,rho_4"

    def test_checkpoints_embed_seed_and_config(self, fx, tmp_path):
        main(
            ["train", fx("coordination_2x2.json"), "--seed", "11",
             "--epochs", "1", "--out-dir", str(tmp_path)]
        )
        ckpt = json.loads((tmp_path / "train_checkpoint_p1.json").read_text())
        assert ckpt["seed"] == 11
        assert ckpt["config"]["learning_rate"] == pytest.approx(0.001)

    def test_fixed_seed_reproduces_history_bytes(self, fx, tmp_path):
        for sub in ("a", "b"):
            code = main(
                ["train", fx("coordination_2x2.json"), "--seed", "42",
                 "--epochs", "2", "--out-dir", str(tmp_path / sub)]
            )
            assert code == 3
        assert (tmp_path / "a/train_history.csv").read_bytes() == (
            tmp_path / "b/train_history.csv"
        ).read_bytes()

    def test_too_few_steps_is_an_input_error(self, fx, tmp_path, capsys):
        code = main(
            ["train", fx("coordination_2x2.json"), "--steps", "10",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "ceil(1/step_size)" in err and "N=10" in err

    def test_refuses_overwrite_without_force(self, fx, tmp_path):
        argv = ["train", fx("coordination_2x2.json"), "--epochs", "1",
                "--out-dir", str(tmp_path)]
        main(argv)
        assert main(argv) == 2
        assert main(argv + ["--force"]) == 3

    def test_divergence_exits_3_without_traceback(self, fx, tmp_path):
        proc = run_cli(
            "train", fx("coordination_2x2.json"),
            "--learning-rate", "1e300", "--epochs", "3", "--out-dir", str(tmp_path),
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: training diverged to non-finite values")

    def test_output_dir_env_var(self, fx, tmp_path, monkeypatch):
        monkeypatch.setenv("CELAB_OUT_DIR", str(tmp_path / "from_env"))
        code = main(["train", fx("coordination_2x2.json"), "--epochs", "1"])
        assert code == 3
        assert (tmp_path / "from_env/train_history.csv").exists()


class TestEstimate:
    def test_feasible_point_mass_with_round_trip(self, fx, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text("[1.0, 0.0, 0.0, 0.0]")
        out = tmp_path / "report.json"
        code = main(
            ["estimate", fx("coordination_2x2.json"),
             "--known-player", "p1", "--distribution", str(dist),
             "--round-trip", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["status"] == "ok"
        assert payload["estimated_player"] == "p2"
        assert payload["axes_swapped"] is False
        np.testing.assert_allclose(sum(payload["estimate_game_order"]), 1.0)
        assert payload["round_trip_verdict"]["match"] is True

    def test_infeasible_distribution_reports_families(self, fx, tmp_path, capsys):
        dist = tmp_path / "dist.json"
        json.dump({"p_tilde": [1 / 3, 1 / 3, 1 / 3, 0.0]}, dist.open("w"))
        out = tmp_path / "report.json"
        code = main(
            ["estimate", fx("mirror_2x2.json"),
             "--known-player", "p1", "--distribution", str(dist),
             "--out", str(out)]
        )
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["report"]["status"] == "infeasible"
        assert payload["report"]["violated_families"]
        assert payload["report"]["constraints"]
        assert "infeasible" in capsys.readouterr().out

    def test_known_player_on_second_axis(self, fx, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text("[1.0, 0.0, 0.0, 0.0]")
        out = tmp_path / "report.json"
        code = main(
            ["estimate", fx("coordination_2x2.json"),
             "--known-player", "p2", "--distribution", str(dist),
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["axes_swapped"] is True
        assert payload["estimated_player"] == "p1"

    def test_unknown_player(self, fx, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text("[1.0, 0.0, 0.0, 0.0]")
        code = main(
            ["estimate", fx("coordination_2x2.json"),
             "--known-player", "p9", "--distribution", str(dist),
             "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_distribution_must_be_a_simplex_point(self, fx, tmp_path, capsys):
        dist = tmp_path / "dist.json"
        dist.write_text("[0.9, 0.9, 0.0, 0.0]")
        code = main(
            ["estimate", fx("coordination_2x2.json"),
             "--known-player", "p1", "--distribution", str(dist),
             "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "simplex" in capsys.readouterr().err

    def test_distribution_length_checked(self, fx, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text("[0.5, 0.5]")
        code = main(
            ["estimate", fx("coordination_2x2.json"),
             "--known-player", "p1", "--distribution", str(dist),
             "--out", str(tmp_path / "x")]
        )
        assert code == 2


class TestPipeline:
    def test_two_player_fully_known_manifest(self, fx, tmp_path, capsys):
        out = tmp_path / "manifest.json"
        code = main(
            ["pipeline", fx("coordination_2x2.json"),
             "--known-player", "p1", "--known-player", "p2",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "complete"
        assert len(payload["tasks"]) == 1
        assert payload["tasks"][0]["status"] == "analytic_ce"
        assert payload["reproducibility"]["seed"] == 0
        assert "analytic (no interaction)" in capsys.readouterr().out

    def test_stalled_run_exits_partial(self, tmp_path, capsys):
        game = write_game(
            tmp_path / "stall.json",
            {
                "p1": [0.46, 0.02, 0.04, 0.24, 0.05, 0.03, 0.05, 0.11],
                "p2": None,
                "p3": None,
            },
        )
        out = tmp_path / "manifest.json"
        code = main(["pipeline", game, "--out", str(out)])
        assert code == 4
        payload = json.loads(out.read_text())
        assert payload["status"] == "partial"
        assert payload["stalled_tasks"] == [0, 1, 2, 3, 4, 5]
        assert "status: partial" in capsys.readouterr().out

    def test_unknown_main_player(self, fx, tmp_path):
        code = main(
            ["pipeline", fx("coordination_2x2.json"),
             "--main-player", "p9", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_a_view_that_is_not_2x2_exits_2_naming_the_task(
        self, three_by_two_game, tmp_path, capsys
    ):
        game = tmp_path / "game.json"
        game.write_text(json.dumps(three_by_two_game))
        out = tmp_path / "manifest.json"
        assert main(["pipeline", str(game), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: task p1-p2 [p3=A] would train on a view with menus")
        assert not out.exists()

    def test_a_flat_view_exits_2_naming_the_task_and_player(self, fixtures_dir, tmp_path, capsys):
        # p3's payoff is flat, so its first view cannot count equilibria; the
        # two p1-p2 tasks train first
        data = json.loads((fixtures_dir / "three_player.json").read_text())
        data["payoffs"]["p3"] = [0.125] * 8
        game = write_game(tmp_path / "flat.json", data["payoffs"])
        out = tmp_path / "manifest.json"
        assert main(["pipeline", game, "--epochs", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: task p1-p3 [p2=A]: player 'p3' has equal payoffs across its own "
            "decisions; indifference system is degenerate"
        ]
        assert not out.exists()


def _golden_runs():
    """(fixture, argv tail, distribution) for every run the golden digest covers."""
    for fixture in ("chicken", "coordination_2x2", "dominant_2x2", "mirror_2x2"):
        yield fixture, ["solve", "--mode", "ce"], None
        yield fixture, ["solve", "--mode", "ne"], None
        yield fixture, ["solve", "--mode", "hull", "--point", "0.3", "0.3",
                        "--point", "0.5", "0.2"], None
    yield "coordination_2x2", ["estimate", "--known-player", "p1", "--round-trip"], (
        [1.0, 0.0, 0.0, 0.0]
    )
    yield "mirror_2x2", ["estimate", "--known-player", "p1"], (
        {"p_tilde": [1 / 3, 1 / 3, 1 / 3, 0.0]}
    )
    for seed in ("0", "1"):
        yield "three_player", ["pipeline", "--epochs", "4", "--seed", seed], None
    yield "stalled_three_player", ["pipeline", "--epochs", "3"], None
    # the runs above end with every estimate infeasible; these two reach the
    # other task outcomes. With p1 and p2 given, the (p1, p2) views are
    # analytic; under this fast-learning config both (p2, p3) slices
    # estimate, p3's vector is stitched from them and the post-estimation
    # sweep runs. Mirror's one view has a single equilibrium and is skipped.
    yield "three_player", ["pipeline", "--known-player", "p1", "--known-player", "p2",
                           "--step-size", "0.05", "--steps", "20",
                           "--learning-rate", "0.01", "--epochs", "20"], None
    yield "mirror_2x2", ["pipeline", "--epochs", "4"], None


def test_golden_artifact_digest(fx, tmp_path):
    # sha256 over the exit codes and sorted-key JSON artifacts of solve,
    # estimate and pipeline runs on the bundled fixtures, recorded with
    # numpy 2.4 on OpenBLAS. Input paths in the reproducibility header are
    # reduced to file names, so the digest does not depend on where the
    # files live; any drift in a command's output changes it.
    digest = hashlib.sha256()
    for i, (fixture, argv, distribution) in enumerate(_golden_runs()):
        command, *rest = argv
        out = tmp_path / f"run{i}.json"
        if distribution is not None:
            dist = tmp_path / f"dist{i}.json"
            dist.write_text(json.dumps(distribution))
            rest += ["--distribution", str(dist)]
        code = main([command, fx(f"{fixture}.json"), *rest, "--out", str(out)])
        payload = json.loads(out.read_text())
        header = payload["reproducibility"]
        header["game"] = f"{fixture}.json"
        if "distribution" in header["options"]:
            header["options"]["distribution"] = f"dist{i}.json"
        digest.update(f"{code}\n{json.dumps(payload, sort_keys=True)}\n".encode())
    assert digest.hexdigest() == (
        "35f57f0ede89e06dddc64e27c3f14fda9dc846cc2b185d523e82c725433db5fc"
    )


def test_train_and_pipeline_raw_bytes_digest(fixtures_dir, tmp_path, monkeypatch):
    # sha256 over the raw bytes of the four files `train` writes and one
    # pipeline manifest, recorded with numpy 2.4 on OpenBLAS. Unlike the
    # golden digest above nothing is re-serialized, so the key order of
    # every JSON object (the stored training config's among them) counts.
    # The games are named relative to a copy, so the bytes do not depend on
    # where the checkout lives.
    for name in ("coordination_2x2.json", "three_player.json"):
        (tmp_path / name).write_bytes((fixtures_dir / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    code = main(["train", "coordination_2x2.json", "--seed", "0", "--epochs", "3",
                 "--out-dir", "train"])
    assert code == 3
    code = main(["pipeline", "three_player.json", "--epochs", "4", "--out", "manifest.json"])
    assert code == 4
    digest = hashlib.sha256()
    for name in ("train/train_history.csv", "train/train_checkpoint_p1.json",
                 "train/train_checkpoint_p2.json", "train/train_p_tilde.json",
                 "manifest.json"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == (
        "e6e19a808b083fc2bd928ffc36184194535ec79b678aeb518610ff84fcbbd517"
    )


_THREE_PLAYER_GAME = json.loads((ROOT / "fixtures" / "three_player.json").read_text())

_VALID_GAME = {
    "players": ["p1", "p2"],
    "decisions": {"p1": ["C", "D"], "p2": ["C", "D"]},
    "payoffs": {"p1": [0.4, 0.1, 0.3, 0.2], "p2": [0.4, 0.3, 0.1, 0.2]},
}

# p1 and p2 given, p3 unknown: the p1-p2 task at p3=D settles without
# training, and p1 has no mass on any p3=D outcome, so its view cannot be
# renormalized for the correlated-equilibrium solve.
_ZERO_MASS_GAME = {
    "players": ["p1", "p2", "p3"],
    "decisions": {p: ["C", "D"] for p in ("p1", "p2", "p3")},
    "payoffs": {
        "p1": [0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0],
        "p2": [0.125] * 8,
        "p3": None,
    },
}


@pytest.mark.parametrize(
    "argv, game_fields, distribution",
    [
        (["train", "--step-size", "0"], {}, None),
        (["train", "--width-mid", "0"], {}, None),
        (["train", "--width-in", "0"], {}, None),
        (["train", "--learning-rate", "nan"], {}, None),
        (["train", "--stability-tol", "nan"], {}, None),
        (["train", "--stability-tol", "-1"], {}, None),
        (["train", "--rounds", "1"], {}, None),
        (["solve"], {"payoffs": {"p1": ["a", 0.2, 0.3, 0.5], "p2": [0.25] * 4}}, None),
        (["solve"], {"players": 5}, None),
        (["solve"], {"decisions": {"p1": "CD", "p2": ["C", "D"]}}, None),
        (["estimate", "--known-player", "p1"], {}, ["a", "b", "c", "d"]),
        (["estimate", "--known-player", "p1"], {}, [[0.5], [0.25, 0.25]]),
        (["estimate", "--known-player", "p1"], {}, [0.5, 0.25, float("nan"), 0.25]),
        (["estimate", "--known-player", "p1", "--comparison-tol", "nan"], {}, [0.25] * 4),
        (["estimate", "--known-player", "p1", "--comparison-tol", "-1"], {}, [0.25] * 4),
        (["pipeline", "--epochs", "2", "--comparison-tol", "nan"], {}, None),
        (["estimate", "--known-player", "p1", "--round-trip", "--round-trip-tol", "nan"],
         {}, [0.25] * 4),
        (["estimate", "--known-player", "p1", "--round-trip", "--round-trip-tol", "-1"],
         {}, [0.25] * 4),
        (["train", "--epochs", "2", "--seed", "-1"], {}, None),
        (["pipeline", "--epochs", "2", "--seed", "-1"], {}, None),
        (["solve", "--mode", "hull"], {}, None),
        (["solve", "--mode", "hull", "--point", "0.3", "0.3", "0.3"], {}, None),
        (["pipeline", "--epochs", "0"], {}, None),
        (["pipeline", "--known-player", "p1", "--known-player", "p2"], _ZERO_MASS_GAME, None),
        (["train", "--epochs", "1", "--prefix", "a/b"], {}, None),
        (["train", "--epochs", "1", "--prefix", "../escape"], {}, None),
        (["train", "--step-size", "1", "--steps", "1"], {}, None),
        (["pipeline", "--step-size", "1", "--steps", "1"], _THREE_PLAYER_GAME, None),
        # JSON true and false are not the numbers 1 and 0
        (["solve", "--mode", "ce"],
         {"payoffs": {"p1": [True, False, False, False], "p2": [0.4, 0.3, 0.1, 0.2]}}, None),
        (["estimate", "--known-player", "p1"], {}, [True, False, False, False]),
        (["estimate", "--known-player", "p1"], {}, [0.5, 0.5, False, False]),
        # integers beyond float range, and nesting deeper than numpy's or JSON's limits
        (["solve"], {"payoffs": {"p1": [10**400, 0, 0, 0], "p2": [0.25] * 4}}, None),
        (["estimate", "--known-player", "p1"], {}, [10**400, 0, 0, 0]),
        (["estimate", "--known-player", "p1"], {}, "[" * 500 + "0.25" + "]" * 500),
        (["solve"], "[" * 3000 + "]" * 3000, None),
        (["estimate", "--known-player", "p1"], {}, "[" * 3000 + "]" * 3000),
        # more digits than Python converts to an int
        (["estimate", "--known-player", "p1"], {}, "[1" + "0" * 5000 + ", 0, 0, 0]"),
    ],
    ids=[
        "zero-step-size", "zero-width-mid", "zero-width-in", "nan-learning-rate",
        "nan-stability-tol", "negative-stability-tol", "one-round", "non-numeric-payoff",
        "players-not-a-list", "menu-as-a-string", "non-numeric-distribution",
        "ragged-distribution", "nan-distribution", "nan-comparison-tol", "negative-comparison-tol",
        "pipeline-nan-comparison-tol", "nan-round-trip-tol", "negative-round-trip-tol",
        "train-negative-seed", "pipeline-negative-seed", "hull-without-point",
        "hull-point-with-wrong-arity",
        "pipeline-zero-epochs", "pipeline-zero-mass-analytic-slice",
        "prefix-with-a-directory", "prefix-leaving-the-out-dir",
        "train-one-state-round", "pipeline-one-state-round",
        "boolean-payoff", "boolean-distribution", "mixed-boolean-distribution",
        "huge-integer-payoff", "huge-integer-distribution", "deep-distribution",
        "very-deep-game", "very-deep-distribution", "too-many-digits-distribution",
    ],
)
def test_malformed_input_exits_2_with_one_error_line(
    tmp_path, request, argv, game_fields, distribution
):
    # a str is the file's raw text: json.dumps cannot nest 3000 deep
    game = tmp_path / "game.json"
    game.write_text(
        game_fields if isinstance(game_fields, str) else json.dumps({**_VALID_GAME, **game_fields})
    )
    command, *rest = argv
    if distribution is not None:
        dist = tmp_path / "dist.json"
        dist.write_text(
            distribution if isinstance(distribution, str) else json.dumps(distribution)
        )
        rest += ["--distribution", str(dist)]
    proc = run_cli(command, str(game), *rest, "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")
    if request.node.callspec.id.endswith("-distribution"):  # the file's contents are at fault
        assert str(tmp_path / "dist.json") in line
    assert not (tmp_path / "out").exists()
    # nothing beside out/ either: a prefix such as ../escape points there
    inputs = {"game.json"} | ({"dist.json"} if distribution is not None else set())
    assert {p.name for p in tmp_path.iterdir()} == inputs


@pytest.mark.parametrize(
    "command, fixture", [("train", "coordination_2x2.json"), ("pipeline", "three_player.json")]
)
def test_arena_too_large_to_allocate_exits_2_with_one_error_line(
    fx, tmp_path, capsys, command, fixture
):
    # 10^11 rounds ask for a rollout record of about 1.3 PiB, beyond any
    # address space, so numpy refuses it at once instead of granting it
    out = tmp_path / "out"
    assert main([command, fx(fixture), "--rounds", "100000000000", "--out-dir", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: out of memory: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("players", "[" * 500 + "]" * 500),
        ("players", json.dumps([[[0.25, [1]]]] * 300)),
        ("decisions", json.dumps({"p1": [["C"]] * 300, "p2": ["C", "D"]})),
    ],
    ids=["players-nested-500-deep", "players-of-300-arrays", "menu-of-300-arrays"],
)
def test_label_errors_stay_short(tmp_path, capsys, field, value):
    # the error names the value's type and length, not its text
    game = tmp_path / "game.json"
    game.write_text(json.dumps({**_VALID_GAME, field: "@"}).replace('"@"', value))
    assert main(["solve", str(game), "--out-dir", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and len(line) < 200


def test_out_dir_naming_a_file_exits_2_with_one_error_line(fx, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps([0.5, 0.0, 0.0, 0.5]))
    runs = [
        ["solve", fx("chicken.json")],
        ["train", fx("coordination_2x2.json"), "--epochs", "1"],
        ["estimate", fx("coordination_2x2.json"), "--known-player", "p1",
         "--distribution", str(dist)],
        ["pipeline", fx("three_player.json"), "--epochs", "1"],
    ]
    for argv in runs:
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(blocker)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
    assert blocker.read_text() == "keep\n"


def test_negative_train_seed_exits_2_before_making_the_output_directory(fx, tmp_path):
    code = main(["train", fx("coordination_2x2.json"), "--seed", "-1",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert not any(tmp_path.iterdir())


def test_abbreviated_flags_exit_2_and_write_nothing(fx, tmp_path):
    # with abbreviations allowed, train's --out meant --out-dir, and solve's
    # --mo, --fo and --out-d meant --mode, --force and --out-dir
    runs = [
        ["train", fx("coordination_2x2.json"), "--epochs", "1",
         "--out", str(tmp_path / "run")],
        ["solve", fx("chicken.json"), "--mo", "ne", "--fo",
         "--out-d", str(tmp_path / "od")],
    ]
    for argv in runs:
        proc = run_cli(*argv, env={**os.environ, "CELAB_OUT_DIR": str(tmp_path / "default")})
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
    assert not any(tmp_path.iterdir())


def test_module_entry_point_runs(fx, tmp_path):
    proc = run_cli("solve", fx("chicken.json"), "--mode", "ce", "--out", str(tmp_path / "ce.json"))
    assert proc.returncode == 0
    assert "welfare" in proc.stdout


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_every_training_field_has_its_flag(command):
    parser = build_parser()
    assert _training_config(parser.parse_args([command, "game.json"])) == TrainingConfig()
    values = {
        "rounds": 3, "steps": 70, "step_size": 0.05, "discount": 0.5,
        "learning_rate": 0.01, "epochs": 7, "stability_window": 4,
        "stability_tol": 0.1, "width_in": 5, "width_mid": 9,
    }
    assert set(values) == {f.name for f in fields(TrainingConfig)}
    argv = [command, "game.json"]
    for name, value in values.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert _training_config(parser.parse_args(argv)) == TrainingConfig(**values)


def _readme_commands():
    """The argv of every `celab` line in README's code blocks, with
    backslash continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("celab ")
    ]


def test_readme_commands_parse_and_its_solve_lines_run(fixtures_dir, tmp_path, monkeypatch):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"solve", "train", "estimate", "pipeline"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: celab {shlex.join(argv)}")
    # in README order, in one directory, as a reader would run them
    shutil.copytree(fixtures_dir, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CELAB_OUT_DIR", raising=False)
    for argv in commands:
        if argv[0] == "solve":
            assert main(argv) == 0, f"celab {shlex.join(argv)}"
