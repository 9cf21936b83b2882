import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

import numpy as np
import pytest

from debye_forge.cli import main as cli_main
from debye_forge.config import ConfigError, config_hash, parse_config, serialize_config
from debye_forge.io import dump_json, load_json, read_field, sha256_file, write_field
from oracles import check_manifest

MINIMAL = {
    "lattice": {"basis": [[6.283185307179586]]},
    "temperature": 0.05,
}


def fast_config(tmp_path, **extra):
    cfg = {
        "lattice": {"basis": [[6.283185307179586]]},
        "temperature": 0.05,
        "ecut": 30.0,
        "kgrid": [4],
        "output_dir": str(tmp_path / "out"),
        "response": {"delta": 0.125, "kmax": 0.1, "ksamples": 12},
        "macro": {"source": {"family": "gaussian", "width": 0.05}, "grid": 1024, "box_lengths": 16.0},
        "multiscale": {"delta_list": [0.25], "kappa_prime": {"family": "gaussian", "width": 0.35, "amplitude": 0.02, "mean_free": True}},
    }
    cfg.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg["ecut"] == 200.0
        assert cfg["kgrid"] == [16]
        assert cfg["crystal"]["mode"] == "designer"
        assert cfg["multiscale"]["delta_list"] == [0.125, 0.0625, 0.03125]

    def test_negative_temperature_names_field(self):
        bad = dict(MINIMAL, temperature=-0.1)
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "temperature" in str(err.value)

    def test_unknown_key_rejected_strict(self):
        bad = dict(MINIMAL, temprature=0.05)
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "temprature" in str(err.value)

    def test_all_violations_reported(self):
        bad = dict(MINIMAL, temperature=-1.0, ecut=-5.0)
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        msg = str(err.value)
        assert "temperature" in msg and "ecut" in msg

    def test_round_trip_identity(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(json.loads(serialize_config(cfg)))
        assert serialize_config(cfg) == serialize_config(again)
        assert config_hash(cfg) == config_hash(again)

    def test_given_field_spec_replaces_the_default(self):
        spec = {"family": "file", "path": "phi.dbyf"}
        cfg = parse_config(dict(MINIMAL, crystal={"potential": spec, "kappa": spec}))
        assert cfg["crystal"]["potential"] == spec and cfg["crystal"]["kappa"] == spec
        assert cfg["crystal"]["scf"]["max_iter"] == 200  # siblings still merge

    def test_reference_config_hash_pinned(self):
        cfg = parse_config(str(REPO / "configs" / "mathieu.json"))
        assert config_hash(cfg) == (
            "fff515129ac83e3fdff85bb0fc539a4c27cf0a7c17e2ad1d99d2d15c49655074")

    def test_bad_delta_list(self):
        bad = dict(MINIMAL, multiscale={"delta_list": [0.3]})
        with pytest.raises(ConfigError, match="1/N"):
            parse_config(bad)


class TestFieldBinary:
    def test_real_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((5, 7))
        p = tmp_path / "f.dbyf"
        write_field(p, arr)
        back = read_field(p)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        p = tmp_path / "c.dbyf"
        write_field(p, arr)
        assert np.array_equal(read_field(p), arr)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "h.dbyf"
        write_field(p, np.zeros((3, 4)))
        raw = p.read_bytes()
        assert raw[:4] == b"DBYF"
        import struct

        version, kind, d = struct.unpack("<III", raw[4:16])
        assert (version, kind, d) == (1, 0, 2)
        assert struct.unpack("<II", raw[16:24]) == (3, 4)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.dbyf"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_field(p)


class TestPipeline:
    def test_crystal_stage_bundle(self, tmp_path):
        path, cfg = fast_config(tmp_path)
        assert cli_main(["crystal", "--config", str(path)]) == 0
        out = tmp_path / "out" / "crystal"
        for name in ("kappa.dbyf", "rho.dbyf", "phi.dbyf", "state.json", "manifest.json"):
            assert (out / name).exists()
        meta = load_json(out / "state.json")
        assert meta["dielectric_flag"]
        man = load_json(out / "manifest.json")
        # manifest completeness: every data output listed with its hash
        for name in ("kappa.dbyf", "rho.dbyf", "phi.dbyf", "state.json"):
            assert man["outputs"][name] == sha256_file(out / name)

    def test_file_potential_round_trip(self, tmp_path):
        # the potential a crystal stage wrote, read back through the "file"
        # family, gives the same crystal again
        path, _ = fast_config(tmp_path)
        assert cli_main(["crystal", "--config", str(path)]) == 0
        first = tmp_path / "out" / "crystal"
        spec = {"family": "file", "path": str(first / "phi.dbyf")}
        again = tmp_path / "again"
        again.mkdir()
        path2, _ = fast_config(again, crystal={"potential": spec})
        assert parse_config(str(path2))["crystal"]["potential"] == spec
        assert cli_main(["crystal", "--config", str(path2)]) == 0
        second = again / "out" / "crystal"
        for name in ("phi.dbyf", "kappa.dbyf", "rho.dbyf"):
            a, b = read_field(first / name), read_field(second / name)
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())
        assert load_json(second / "state.json")["mu"] == pytest.approx(
            load_json(first / "state.json")["mu"], abs=1e-13
        )

    def test_response_requires_crystal(self, tmp_path):
        path, cfg = fast_config(tmp_path)
        rc = cli_main(["response", "--config", str(path)])
        assert rc == 2  # actionable dependency error

    def test_full_chain_and_determinism(self, tmp_path):
        path, cfg = fast_config(tmp_path)
        for stage in ("crystal", "bands", "response", "macro"):
            assert cli_main([stage, "--config", str(path)]) == 0, stage
        out = tmp_path / "out"
        first = {}
        for rel in (
            "crystal/state.json",
            "bands/bands.csv",
            "response/response.json",
            "response/b_samples.csv",
            "macro/macro.json",
        ):
            first[rel] = (out / rel).read_bytes()
        # rerun: identical config must give identical data bytes
        for stage in ("crystal", "bands", "response", "macro"):
            assert cli_main([stage, "--config", str(path)]) == 0
        for rel, blob in first.items():
            assert (out / rel).read_bytes() == blob, rel

    def test_multiscale_stage(self, tmp_path):
        path, cfg = fast_config(tmp_path)
        assert cli_main(["crystal", "--config", str(path)]) == 0
        assert cli_main(["multiscale", "--config", str(path)]) == 0
        order = load_json(tmp_path / "out" / "multiscale" / "order.json")
        assert order["deltas"] == [0.25]
        assert (tmp_path / "out" / "multiscale" / "multiscale_N4.json").exists()

    def test_config_error_exit_code(self, tmp_path):
        # an invalid value and an unknown key are both configuration errors
        for bad in ({"temperature": -2.0}, {"future_knob": 1}):
            p = tmp_path / "bad.json"
            p.write_text(json.dumps(dict(MINIMAL, **bad)))
            assert cli_main(["crystal", "--config", str(p)]) == 2, bad

    def test_missing_config_file(self, tmp_path):
        assert cli_main(["crystal", "--config", str(tmp_path / "none.json")]) == 2

    def test_strict_regime_exit(self, tmp_path):
        # beta = 20 at delta = 1/4 violates the asymptotic regime window
        path, cfg = fast_config(tmp_path)
        assert cli_main(["crystal", "--config", str(path)]) == 0
        rc = cli_main(["multiscale", "--config", str(path), "--strict-regime"])
        assert rc == 4

    def test_strict_regime_refusal_writes_nothing(self, tmp_path, monkeypatch):
        # the first delta holds the regime and the second does not: the
        # refused stage leaves no output of the first either
        from debye_forge.response import HomogenizedCoefficients

        monkeypatch.setattr(HomogenizedCoefficients, "regime_ok",
                            property(lambda self: {"ok": self.delta < 0.2}))
        path, cfg = fast_config(tmp_path)
        cfg["multiscale"]["delta_list"] = [0.125, 0.25]
        path.write_text(json.dumps(cfg))
        assert cli_main(["crystal", "--config", str(path)]) == 0
        assert cli_main(["multiscale", "--config", str(path), "--strict-regime"]) == 4
        stage = tmp_path / "out" / "multiscale"
        assert not stage.exists() or not any(stage.iterdir())
        assert cli_main(["multiscale", "--config", str(path)]) == 0
        check_manifest(stage)
        assert {p.name for p in stage.iterdir()} >= {"multiscale_N8.json", "multiscale_N4.json"}

    def test_rerun_deletes_the_outputs_it_no_longer_writes(self, tmp_path):
        # one delta fewer: the file of the dropped delta goes, and a file
        # that the previous manifest does not list stays
        path, cfg = fast_config(tmp_path)
        cfg["multiscale"]["delta_list"] = [0.125, 0.25]
        path.write_text(json.dumps(cfg))
        assert cli_main(["crystal", "--config", str(path)]) == 0
        assert cli_main(["multiscale", "--config", str(path)]) == 0
        stage = tmp_path / "out" / "multiscale"
        assert (stage / "multiscale_N4.json").exists()
        (stage / "notes.txt").write_text("not an output")
        cfg["multiscale"]["delta_list"] = [0.125]
        path.write_text(json.dumps(cfg))
        assert cli_main(["multiscale", "--config", str(path)]) == 0
        assert not (stage / "multiscale_N4.json").exists()
        assert (stage / "notes.txt").read_text() == "not an output"
        (stage / "notes.txt").unlink()
        check_manifest(stage)
        assert {p.name for p in stage.iterdir()} == {
            "manifest.json", "multiscale_N8.json", "order.json", "order_fit.csv"}

    def test_strict_regime_fails_on_newton_status(self, tmp_path, monkeypatch, capsys):
        # regime conditions forced to hold: the Newton status alone decides
        import functools

        from debye_forge import multiscale
        from debye_forge.response import HomogenizedCoefficients

        monkeypatch.setattr(HomogenizedCoefficients, "regime_ok", property(lambda self: {"ok": True}))
        path, cfg = fast_config(tmp_path)
        assert cli_main(["crystal", "--config", str(path)]) == 0
        solve = multiscale.micro_solve_perturbation
        monkeypatch.setattr(multiscale, "micro_solve_perturbation", functools.partial(solve, tol=1e-16))
        assert cli_main(["multiscale", "--config", str(path), "--strict-regime"]) == 4
        assert "Newton status 'noise-floor'" in capsys.readouterr().err
        assert cli_main(["multiscale", "--config", str(path)]) == 0
        monkeypatch.setattr(multiscale, "micro_solve_perturbation", functools.partial(solve, tol=1e-6))
        assert cli_main(["multiscale", "--config", str(path), "--strict-regime"]) == 0
        info = load_json(tmp_path / "out" / "multiscale" / "multiscale_N4.json")
        assert info["newton"]["status"] == "converged"

    def test_atomic_manifest(self, tmp_path, monkeypatch):
        # interrupting before the final rename leaves no partial manifest
        path, cfg = fast_config(tmp_path)
        import debye_forge.io as dfio

        real_dump = dfio.dump_json

        def exploding(p, obj):
            real_dump(p, obj)
            if str(p).endswith(".manifest.json.tmp"):
                raise KeyboardInterrupt

        monkeypatch.setattr(dfio, "dump_json", exploding)
        with pytest.raises(KeyboardInterrupt):
            from debye_forge.config import parse_config as pc
            from debye_forge.pipeline import run_crystal

            run_crystal(pc(json.loads(path.read_text())))
        assert not (tmp_path / "out" / "crystal" / "manifest.json").exists()

    def test_cli_entrypoint_subprocess(self, tmp_path):
        path, cfg = fast_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "debye_forge.cli", "crystal", "--config", str(path)],
            capture_output=True,
        )
        assert proc.returncode == 0

    def test_threads_flag(self, tmp_path, monkeypatch):
        # the count reaches the stages through the config only: the process
        # environment, and so every later library call, is left as it was
        monkeypatch.delenv("DEBYE_FORGE_THREADS", raising=False)
        before = dict(os.environ)
        path, cfg = fast_config(tmp_path)
        assert cli_main(["crystal", "--config", str(path), "--threads", "2"]) == 0
        assert dict(os.environ) == before

    def test_threads_reach_the_config(self, tmp_path, monkeypatch):
        from debye_forge import pipeline

        seen = []
        monkeypatch.setattr(pipeline, "run_pipeline",
                            lambda cfg, stages, strict_regime: seen.append(cfg["threads"]))
        path, cfg = fast_config(tmp_path, threads=3)
        monkeypatch.delenv("DEBYE_FORGE_THREADS", raising=False)
        assert cli_main(["crystal", "--config", str(path)]) == 0
        monkeypatch.setenv("DEBYE_FORGE_THREADS", "4")
        assert cli_main(["crystal", "--config", str(path)]) == 0
        assert cli_main(["crystal", "--config", str(path), "--threads", "2"]) == 0
        assert seen == [3, 4, 2]

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_count_is_a_configuration_error(self, tmp_path, monkeypatch, capsys, value):
        path, cfg = fast_config(tmp_path)
        monkeypatch.setenv("DEBYE_FORGE_THREADS", value)
        assert cli_main(["crystal", "--config", str(path)]) == 2
        assert cli_main(["crystal", "--config", str(path), "--threads", "2"]) == 2
        assert "configuration error" in capsys.readouterr().err
        monkeypatch.delenv("DEBYE_FORGE_THREADS")
        with pytest.raises(SystemExit) as exc:
            cli_main(["crystal", "--config", str(path), "--threads", value])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestGoldenConfig:
    """The shipped reference configuration reproduces the acceptance numbers."""

    def test_shipped_config_parses(self):
        cfg = parse_config(str(REPO / "configs" / "mathieu.json"))
        assert cfg["ecut"] == 200.0
        assert cfg["kgrid"] == [16]

    def test_crystal_and_response_reproduce_acceptance_values(self, tmp_path):
        cfg_raw = json.loads((REPO / "configs" / "mathieu.json").read_text())
        cfg_raw["output_dir"] = str(tmp_path / "golden")
        p = tmp_path / "golden.json"
        p.write_text(json.dumps(cfg_raw))
        assert cli_main(["crystal", "--config", str(p)]) == 0
        assert cli_main(["response", "--config", str(p)]) == 0
        rj = load_json(tmp_path / "golden" / "response" / "response.json")
        # frozen from the acceptance-suite run of the same crystal
        assert rj["eps"][0][0] == pytest.approx(1.0858513059, abs=1e-8)
        assert abs(rj["eps_fit"][0][0] - rj["eps"][0][0]) < 1e-6
        assert rj["bound_checks"]["m_lower_quarter_beta_exp"]["ok"]
        assert rj["bound_checks"]["b0_identity_rel"] < 1e-9
        sj = load_json(tmp_path / "golden" / "crystal" / "state.json")
        assert sj["eta0"] == pytest.approx(0.8274829, abs=1e-6)
        assert sj["in_gap"]

    def test_verify_quick_cli(self, capsys):
        rc = cli_main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[PASS]") == 12  # criterion 11 skipped in quick mode


def test_reference_eps_pinned():
    """eps of the reference crystal at beta = 40 stays at its recorded value."""
    from debye_forge import response as R
    from debye_forge.acceptance import MathieuContext

    eps = R.epsilon_matrix(MathieuContext().workspace(40))[0][0, 0]
    assert eps == pytest.approx(1.0858513059, abs=1e-10)


def test_run_pipeline_multi_stage(tmp_path):
    from debye_forge.pipeline import run_pipeline

    path, cfg_raw = fast_config(tmp_path)
    cfg = parse_config(json.loads(path.read_text()))
    rc = run_pipeline(cfg, {"crystal", "bands", "response", "macro"})
    assert rc == 0
    for stage in ("crystal", "bands", "response", "macro"):
        check_manifest(tmp_path / "out" / stage)


def test_response_state_flag_override(tmp_path):
    path, cfg = fast_config(tmp_path)
    assert cli_main(["crystal", "--config", str(path)]) == 0
    moved = tmp_path / "bundle"
    os.rename(tmp_path / "out" / "crystal", moved)
    # without --state the dependency is missing
    assert cli_main(["response", "--config", str(path)]) == 2
    assert cli_main(["response", "--config", str(path), "--state", str(moved)]) == 0


def test_response_stage_2d(tmp_path):
    """The 2D response stage samples b(k) along both axes and their
    diagonal, so its fit design is full and eps_fit matches eps."""
    cfg = {
        "lattice": {"basis": [[6.283185307179586, 0.0], [0.0, 6.283185307179586]]},
        "temperature": 0.05,
        "ecut": 8.0,
        "kgrid": [4, 4],
        "crystal": {
            "mode": "designer",
            "potential": {"family": "cosine", "terms": [
                {"n": [1, 0], "amplitude": 2.0}, {"n": [0, 1], "amplitude": 2.0}]},
            "mu": "mid-gap",
        },
        "response": {"delta": 0.05, "kmax": 0.1, "ksamples": 16},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(cfg))
    for stage in ("crystal", "response"):
        assert cli_main([stage, "--config", str(path)]) == 0, stage
    res = load_json(tmp_path / "out" / "response" / "response.json")
    assert np.abs(np.asarray(res["eps_fit"]) - np.asarray(res["eps"])).max() <= 1e-6


def test_response_stage_3d(tmp_path):
    """The 3D response stage adds the body diagonal to the sampled
    directions, so every quartic k_i^2 k_j k_l column of the fit design is
    nonzero and eps_fit matches eps (configs/cubic.json at a lower cutoff)."""
    cfg = json.loads((REPO / "configs" / "cubic.json").read_text())
    cfg["ecut"] = 4.0
    cfg["response"]["ksamples"] = 12
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(cfg))
    for stage in ("crystal", "response"):
        assert cli_main([stage, "--config", str(path)]) == 0, stage
    res = load_json(tmp_path / "out" / "response" / "response.json")
    assert np.shape(res["eps"]) == (3, 3)
    assert np.abs(np.asarray(res["eps_fit"]) - np.asarray(res["eps"])).max() <= 1e-6
