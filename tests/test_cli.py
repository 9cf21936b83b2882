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
from oracles import check_manifest, hermitian_defect

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
            "1eb878c1a166ed3822f6a85f0de25c675f6cfb0c5d37000dbe84c905a097c537")

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
        # an invalid value and an unknown key are both configuration errors,
        # and so is a worker count that is not a positive integer
        for bad in ({"temperature": -2.0}, {"future_knob": 1}, {"threads": 0}, {"threads": 1.5}):
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

    def test_threads_reach_the_config(self, tmp_path, monkeypatch):
        # the worker count is the config key `threads` and nothing else
        from debye_forge import pipeline

        seen = []
        monkeypatch.setattr(pipeline, "run_pipeline",
                            lambda cfg, stages, strict_regime: seen.append(cfg["threads"]))
        path, cfg = fast_config(tmp_path, threads=3)
        assert cli_main(["crystal", "--config", str(path)]) == 0
        assert seen == [3]


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


def _data_outputs(root):
    """Every data output under `root` by its relative path (manifests carry
    timings and are left out)."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def test_run_pipeline_writes_what_the_cli_stages_write(tmp_path):
    """The five stages in one run_pipeline call read the crystal from its
    bundle, as the CLI does with one stage per process, so both routes
    write the same data bytes."""
    from debye_forge.pipeline import run_pipeline

    stages = ("crystal", "bands", "response", "macro", "multiscale")
    path, raw = fast_config(tmp_path)
    for stage in stages:
        assert cli_main([stage, "--config", str(path)]) == 0, stage
    assert run_pipeline(parse_config(dict(raw, output_dir=str(tmp_path / "one"))), set(stages)) == 0
    staged, together = _data_outputs(tmp_path / "out"), _data_outputs(tmp_path / "one")
    assert len(staged) == 14 and staged.keys() == together.keys()
    assert [name for name in staged if staged[name] != together[name]] == []


@pytest.mark.parametrize("basis, shown", [
    (np.eye(4).tolist(), "dimension must be 1, 2 or 3"),
    ([[1.0, 2.0], [2.0, 4.0]], "degenerate lattice"),
], ids=["4d", "singular"])
def test_refused_lattice_is_a_configuration_error(tmp_path, capsys, basis, shown):
    """A lattice that `Lattice` refuses is refused when the config is
    parsed (exit 2, naming the key), before any stage runs."""
    path, _ = fast_config(tmp_path, lattice={"basis": basis}, kgrid=[4] * len(basis))
    assert cli_main(["crystal", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "lattice/basis" in err and shown in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["other-grid", "missing"])
def test_unreadable_field_file_is_a_configuration_error(tmp_path, capsys, case):
    """A `file` field written on another grid, or a path that cannot be
    read, is a configuration error naming the path (and both grids), and
    the crystal stage writes nothing."""
    path, cfg = scf_config(tmp_path)
    spec = cfg["crystal"]["kappa"]
    if case == "other-grid":
        cfg["ecut"] = 20.0  # grid (25,); the designer crystal wrote (30,) at ecut 30
    else:
        spec["path"] += ".missing"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli_main(["crystal", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and spec["path"] in err
    if case == "other-grid":
        assert "grid (30,), the basis grid (25,)" in err
    assert not (tmp_path / "out" / "crystal").exists()


def _complex_copy(src, dst, imag):
    """Write the grid of the field file src to dst as a complex DBYF field
    (kind 1) with imaginary part imag."""
    vals = read_field(src)
    write_field(dst, vals + 1j * np.full_like(vals, imag))
    return str(dst)


@pytest.mark.parametrize("key", ["kappa", "potential"])
@pytest.mark.parametrize("imag", [1e-3, 0.0], ids=["imag", "zero-imag"])
def test_complex_field_file_is_a_configuration_error(tmp_path, capsys, key, imag):
    """A `file` field holds a real grid: a complex one (DBYF kind 1) is a
    configuration error naming the path (exit 2), even when its imaginary
    part is exactly 0, as scf kappa and as designer potential alike, and
    the crystal stage writes nothing."""
    path, cfg = scf_config(tmp_path)
    written = tmp_path / "designer" / "out" / "crystal"
    if key == "kappa":
        spec = cfg["crystal"]["kappa"]
        spec["path"] = _complex_copy(spec["path"], tmp_path / "kappa_c.dbyf", imag)
    else:
        spec = {"family": "file", "path": _complex_copy(written / "phi.dbyf", tmp_path / "phi_c.dbyf", imag)}
        cfg["crystal"] = {"potential": spec}
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli_main(["crystal", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and spec["path"] in err and "complex" in err
    assert not (tmp_path / "out" / "crystal").exists()


def test_complex_bundle_field_refused(tmp_path, capsys):
    """A crystal bundle whose phi.dbyf holds a complex grid is refused by
    the stages that read it (exit 2, naming the file), which write nothing."""
    path, _ = fast_config(tmp_path)
    assert cli_main(["crystal", "--config", str(path)]) == 0
    phi = tmp_path / "out" / "crystal" / "phi.dbyf"
    _complex_copy(phi, phi, 0.0)
    capsys.readouterr()
    for stage in ("bands", "response"):
        assert cli_main([stage, "--config", str(path)]) == 2, stage
        err = capsys.readouterr().err
        assert str(phi) in err and "complex" in err
        assert not (tmp_path / "out" / stage).exists()


def test_every_field_the_program_builds_is_real(tmp_path):
    """Every field that the program builds has the coefficients of a real
    function, conj(c[-G]) = c[G] to 1e-12 max(1, max |c|): the designer
    kappa, rho and phi of configs/mathieu.json and configs/square.json, the
    final phi and rho of the SCF run on the Mathieu kappa, the fields that
    each bundle loads, and the screening density V."""
    from debye_forge.pipeline import load_crystal_bundle, run_crystal
    from debye_forge.response import ResponseWorkspace, screening_density_V

    fields = {}
    for name in ("mathieu", "square"):
        cfg = parse_config(str(REPO / "configs" / f"{name}.json"))
        cfg["output_dir"] = str(tmp_path / name)
        state = run_crystal(cfg)
        loaded = load_crystal_bundle(cfg)
        for field in ("kappa", "rho", "phi"):
            fields[f"{name} designer {field}"] = getattr(state, field)
            fields[f"{name} loaded {field}"] = getattr(loaded, field)
        fields[f"{name} V"] = screening_density_V(ResponseWorkspace.of(loaded))
        if name == "mathieu":
            cfg["crystal"] = dict(cfg["crystal"], mode="scf", kappa={
                "family": "file", "path": str(tmp_path / name / "crystal" / "kappa.dbyf")})
            cfg["output_dir"] = str(tmp_path / "scf")
            scf = run_crystal(cfg)
            fields["mathieu scf phi"], fields["mathieu scf rho"] = scf.phi, scf.rho
            loaded = load_crystal_bundle(cfg)
            for field in ("kappa", "rho", "phi"):
                fields[f"mathieu scf loaded {field}"] = getattr(loaded, field)
    defects = {name: hermitian_defect(f) for name, f in fields.items()}
    assert max(defects.values()) <= 1e-12, defects


def test_response_state_flag_override(tmp_path):
    path, cfg = fast_config(tmp_path)
    assert cli_main(["crystal", "--config", str(path)]) == 0
    moved = tmp_path / "bundle"
    os.rename(tmp_path / "out" / "crystal", moved)
    # without --state the dependency is missing
    assert cli_main(["response", "--config", str(path)]) == 2
    assert cli_main(["response", "--config", str(path), "--state", str(moved)]) == 0


@pytest.mark.parametrize("key, value, shown", [
    ("ecut", 20.0, "ecut 30.0, the config 20.0"),
    ("temperature", 0.025, "temperature 0.05, the config 0.025"),
    ("kgrid", [8], "kgrid [4], the config [8]"),
    ("lattice", {"basis": [[6.0]]}, "the config [[6.0]]"),
], ids=["ecut", "temperature", "kgrid", "lattice"])
def test_mismatched_crystal_bundle_refused(tmp_path, capsys, key, value, shown):
    """A bundle is read on the config's basis at the config's temperature,
    so one written with another lattice, cutoff, k-grid or temperature is a
    configuration error that names both values, and no stage output is
    written."""
    path, cfg = fast_config(tmp_path)
    assert cli_main(["crystal", "--config", str(path)]) == 0
    path.write_text(json.dumps(dict(cfg, **{key: value})))
    capsys.readouterr()
    for stage in ("bands", "response", "multiscale"):
        assert cli_main([stage, "--config", str(path)]) == 2, stage
        assert shown in capsys.readouterr().err
    assert not (tmp_path / "out" / "response").exists()


def scf_config(tmp_path, **scf):
    """fast_config in scf mode on the kappa of its own designer crystal."""
    (tmp_path / "designer").mkdir()
    path, _ = fast_config(tmp_path / "designer")
    assert cli_main(["crystal", "--config", str(path)]) == 0
    kappa = tmp_path / "designer" / "out" / "crystal" / "kappa.dbyf"
    return fast_config(tmp_path, crystal={"mode": "scf", "mu": "mid-gap", "scf": scf,
                                          "kappa": {"family": "file", "path": str(kappa)}})


@pytest.mark.parametrize("mu, mu_mode", [(-0.1, "fixed-charge"), ("mid-gap", "fixed-mu")])
def test_scf_mu_needs_fixed_mu_mode(tmp_path, capsys, mu, mu_mode):
    """In scf mode a numeric mu is used exactly when mu_mode is fixed-mu;
    fixed-charge would drop the given mu, and fixed-mu has no mu to hold
    without one, so both are configuration errors naming both keys."""
    path, cfg = scf_config(tmp_path)
    cfg["crystal"].update(mu=mu, scf={"mu_mode": mu_mode})
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli_main(["crystal", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "crystal/mu" in err and "crystal/scf/mu_mode" in err
    assert not (tmp_path / "out" / "crystal").exists()


def test_unconverged_scf_crystal_refused(tmp_path, capsys):
    """An SCF crystal stopped by max_iter is not dielectric: response and
    multiscale refuse it alike (exit 3, one message) and write nothing."""
    path, cfg = scf_config(tmp_path, max_iter=2)
    assert cli_main(["crystal", "--config", str(path)]) == 0
    state = load_json(tmp_path / "out" / "crystal" / "state.json")
    assert state["converged"] is False and state["dielectric_flag"] is False
    capsys.readouterr()
    errors = []
    for stage in ("response", "multiscale"):
        assert cli_main([stage, "--config", str(path)]) == 3, stage
        errors.append(capsys.readouterr().err)
        assert not (tmp_path / "out" / stage).exists()
    assert errors[0] == errors[1] and "not dielectric" in errors[0]


def test_delta_not_one_over_n_is_a_configuration_error(tmp_path, capsys):
    """A delta_list entry 1e-12 or more from 1/N is refused when the config
    is parsed (exit 2, naming the key), by the same rule that builds each
    supercell, so the multiscale stage writes nothing."""
    path, cfg = fast_config(tmp_path)
    assert cli_main(["crystal", "--config", str(path)]) == 0
    cfg["multiscale"]["delta_list"] = [0.333333333333]
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli_main(["multiscale", "--config", str(path)]) == 2
    assert "multiscale/delta_list" in capsys.readouterr().err
    assert not (tmp_path / "out" / "multiscale").exists()


@pytest.mark.parametrize("mode", ["designer", "scf"])
def test_loaded_bundle_derives_the_crystal_facts(tmp_path, mode):
    """A loaded bundle reports the mu, k-grid, gap and dielectric flag of
    the state that wrote it, each derived from its inputs, and the flag
    that state.json records."""
    from debye_forge.pipeline import load_crystal_bundle, run_crystal

    path, _ = scf_config(tmp_path) if mode == "scf" else fast_config(tmp_path)
    cfg = parse_config(str(path))
    written = run_crystal(cfg)
    loaded = load_crystal_bundle(cfg)
    meta = load_json(tmp_path / "out" / "crystal" / "state.json")
    assert loaded.mu == written.mu == meta["mu"]
    assert np.array_equal(loaded.k_points, written.k_points)
    assert loaded.basis is loaded.phi.basis and loaded.k_points is loaded.bands.k_points
    for name in ("eta", "eta0", "edge_below", "edge_above"):
        assert getattr(loaded.gap, name) == pytest.approx(getattr(written.gap, name), rel=1e-12)
    assert loaded.gap.in_gap == written.gap.in_gap == meta["in_gap"]
    assert loaded.converged == written.converged == meta["converged"]
    assert loaded.dielectric_flag == written.dielectric_flag == meta["dielectric_flag"]
    assert meta["dielectric_flag"] == (meta["in_gap"] and meta["converged"])
    assert written.dielectric_flag


@pytest.mark.parametrize("key", ["dielectric_flag", "converged", "inversion_symmetric"])
def test_bundle_without_flag_refused(tmp_path, capsys, key):
    """A bundle is read as the crystal stage wrote it: one whose state.json
    lacks a flag is a configuration error naming the key."""
    path, cfg = fast_config(tmp_path)
    assert cli_main(["crystal", "--config", str(path)]) == 0
    spath = tmp_path / "out" / "crystal" / "state.json"
    state = load_json(spath)
    del state[key]
    dump_json(spath, state)
    capsys.readouterr()
    for stage in ("bands", "response", "multiscale"):
        assert cli_main([stage, "--config", str(path)]) == 2, stage
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out" / stage).exists()


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
