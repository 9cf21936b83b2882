"""Each correctness check passes on real outputs and rejects a corrupted one."""

import copy
import json
import shutil
import struct

import numpy as np
import pytest

from perfbench import checks, workloads


@pytest.fixture()
def chain_copy(mathieu_round, tmp_path):
    ctx, _ = mathieu_round
    out = tmp_path / "out"
    shutil.copytree(ctx.out, out)
    return ctx.cfg, out


def _edit_json(path, fn):
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def _edit_csv_column(path, col, row_fn):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        row[col] = repr(row_fn(i, float(row[col]), rows))
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _scale_psi(path, fn):
    raw = bytearray(path.read_bytes())
    d = struct.unpack("<I", raw[12:16])[0]
    head = 16 + 4 * d
    vals = np.frombuffer(bytes(raw[head:]), dtype="<f8")
    path.write_bytes(bytes(raw[:head]) + fn(vals).astype("<f8").tobytes())


def test_chain_outputs_pass(mathieu_round):
    ctx, rnd = mathieu_round
    assert rnd.failed == 0 and not rnd.unexpected
    assert checks.check_mathieu(ctx.out, ctx.cfg) == []


def test_scaled_eps_rejected(chain_copy):
    cfg, out = chain_copy
    _edit_json(out / "response" / "response.json",
               lambda r: r.update(eps=[[r["eps"][0][0] * 1.001]]))
    errs = checks.check_mathieu(out, cfg)
    assert any("b(k) fit" in e for e in errs)


def test_mass_outside_band_rejected(chain_copy):
    cfg, out = chain_copy
    _edit_json(out / "response" / "response.json", lambda r: r.update(m=r["m"] * 5.0))
    assert any("s_beta" in e for e in checks.check_mathieu(out, cfg))


def test_slope_outside_band_rejected(chain_copy):
    cfg, out = chain_copy
    # quadruple the remainder at the smallest delta: the slope drops by 2
    path = out / "multiscale" / "order_fit.csv"
    _edit_csv_column(path, 1, lambda i, v, rows: v * 4.0 if i == len(rows) - 1 else v)
    assert any("slope" in e for e in checks.check_mathieu(out, cfg))


def test_remainder_above_macro_term_rejected(chain_copy):
    cfg, out = chain_copy
    path = out / "multiscale" / "order_fit.csv"
    _edit_csv_column(path, 4, lambda i, v, rows: float(rows[i][1]) * 0.5)
    assert any("macro term" in e for e in checks.check_mathieu(out, cfg))


def test_wrong_decay_rejected(chain_copy):
    cfg, out = chain_copy
    _scale_psi(out / "macro" / "psi.dbyf", lambda v: np.sign(v) * v**2)
    assert any("decay rate" in e for e in checks.check_mathieu(out, cfg))


def test_energy_identity_defect_rejected(chain_copy):
    cfg, out = chain_copy
    _scale_psi(out / "macro" / "psi.dbyf", lambda v: v * 1.001)
    errs = checks.check_mathieu(out, cfg)
    assert any("energy identity" in e for e in errs)
    assert not any("decay rate" in e for e in errs)


def test_digest_sees_one_changed_byte(chain_copy):
    _, out = chain_copy
    before = checks.data_digest(out)
    path = out / "bands" / "gap.json"
    path.write_text(path.read_text().replace("1", "2", 1))
    after = checks.data_digest(out)
    assert before.keys() == after.keys() and before != after


@pytest.fixture(scope="module")
def square_res(square_round):
    ctx, rnd = square_round
    captured = {}
    original = checks.check_square

    def capture(res):
        captured.update(res)
        return original(res)

    checks.check_square = capture
    try:
        checked = workloads.SquareCoeffs().check(ctx, rnd)
    finally:
        checks.check_square = original
    assert checked.errors == []
    return captured


def _corrupted(res, key, fn):
    bad = copy.deepcopy(res)
    bad[key] = fn(np.array(bad[key]) if not np.isscalar(bad[key]) else bad[key])
    return checks.check_square(bad)


def test_square_known_fault_is_the_only_failure(square_round):
    _, rnd = square_round
    assert rnd.attempted == 7 and rnd.failed == 1 and rnd.unexpected == []


@pytest.mark.parametrize("key, fn, message", [
    ("scf_phi", lambda p: p + 1e-6, "round trip"),
    ("eps", lambda e: e * 1.001, "b(k)-fit"),
    ("eps", lambda e: e + np.array([[0.0, 1e-6], [1e-6, 0.0]]), "eps_xy"),
    ("eps", lambda e: e + np.array([[0.0, 0.0], [0.0, 1e-6]]), "eps_yy"),
    ("eps", lambda e: e + np.array([[0.0, 1e-6], [0.0, 0.0]]), "not symmetric"),
    ("eps", lambda e: e * 0.5, "below 1"),
    ("m0_col", lambda c: c + 1e-10, "M_0 1 - V"),
    ("b_plus", lambda b: b + 1e-9, "b(k) - b(-k)"),
    ("psi", lambda p: p * 1.001, "energy identity"),
])
def test_square_corruption_rejected(square_res, key, fn, message):
    assert checks.check_square(square_res) == []
    assert any(message in e for e in _corrupted(square_res, key, fn))


def _verify_lines():
    idx = sorted(checks.QUICK_CRITERIA)
    return [f"[PASS] {i:2d} criterion {i}: value 1.0e-12 (<= 1e-10) (0.{i % 10}s)" for i in idx]


def test_verify_all_pass():
    assert checks.check_verify(_verify_lines()) == []


def test_verify_fail_line_rejected():
    lines = _verify_lines()
    lines[6] = lines[6].replace("[PASS]", "[FAIL]")
    assert checks.check_verify(lines) == [lines[6]]


def test_verify_missing_criterion_rejected():
    assert checks.check_verify(_verify_lines()[:-1])


def test_verify_digest_ignores_wall_times():
    a = _verify_lines()
    b = [line.replace("(0.", "(9.") for line in a]
    a[0] = a[0].replace("value", "value 0.2s (< 30s),")
    b[0] = b[0].replace("value", "value 7.9s (< 30s),")
    assert checks.verify_digest(a) == checks.verify_digest(b)
    c = list(a)
    c[3] = c[3].replace("1.0e-12", "2.0e-12")
    assert checks.verify_digest(c) != checks.verify_digest(a)
