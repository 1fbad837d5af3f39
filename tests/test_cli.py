"""End-to-end tests of the command-line interface."""

import json
import math

import pytest

from nodal.cli import run


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_constants_csv_matches_reference(capsys):
    assert run(["constants", "--m", "25", "--format", "csv"]) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    head = lines[0].split(",")
    assert head[:5] == ["i", "theta", "M0", "M0_over_sqrt", "theta_full"]
    assert len(lines) == 27  # header + rows i = 0..25
    row25 = dict(zip(head, lines[26].split(",")))
    # 6-digit display columns reproduce the reference values
    assert row25["theta"] == "202.493"
    assert row25["M0"] == "9.10436"
    assert row25["M0_over_sqrt"] == "1.82087"
    row1 = dict(zip(head, lines[2].split(",")))
    assert row1["theta"] == "10.374"
    assert row1["M0"] == "1.64872"


def test_constants_deterministic(capsys):
    assert run(["constants", "--m", "6", "--alpha", "1"]) == 0
    first, _ = _capture(capsys)
    assert run(["constants", "--m", "6", "--alpha", "1"]) == 0
    second, _ = _capture(capsys)
    assert first == second
    assert "\r" not in first


def test_constants_json(capsys):
    assert run(["constants", "--m", "3", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["m"] == 3
    assert doc["theta"][0] == 2.0
    assert abs(doc["dirichlet"]["M"][0] - 3.06521) < 5e-5 * 3.06521
    assert doc["neumann"]["Mbar"][2] == pytest.approx(1.0)
    assert len(doc["whole_plane"]) == 3
    assert doc["a_seq"][0] is None  # NaN padding serializes as null


def test_constants_m1_json_no_neumann(capsys):
    assert run(["constants", "--m", "1", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["neumann"] is None


def test_bounds_all_hold(capsys):
    assert run(["bounds", "--kmax", "8", "--mmax", "8"]) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "check,index,lower,value,upper,holds"
    assert len(lines) > 16
    assert all(line.endswith("true") for line in lines[1:])


def test_bounds_json(capsys):
    assert run(["bounds", "--kmax", "2", "--mmax", "3", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    checks = {d["check"] for d in doc}
    assert checks == {"theta_growth", "m0_growth", "dirichlet_sup", "s_last",
                      "neumann_sup"}
    assert all(d["holds"] for d in doc)


def test_solve_validation_exit_codes(capsys):
    assert run(["solve", "--p", "2", "--alpha", "0", "--m", "1", "--bc", "neumann"]) == 1
    _, err = _capture(capsys)
    assert "Neumann" in err
    assert run(["solve", "--p", "0.5", "--m", "1", "--bc", "dirichlet"]) == 1
    assert run(["solve", "--p", "10", "--m", "0", "--bc", "dirichlet"]) == 1
    assert run(["solve", "--p", "10", "--m", "1", "--bc", "dirichlet",
                "--alpha", "-1"]) == 1
    assert run(["--bogus"]) == 1
    assert run(["solve", "--p", "10", "--m", "1", "--bc", "torus"]) == 1


def test_solve_json_dump(capsys):
    assert run(["solve", "--p", "40", "--alpha", "0", "--m", "2",
                "--bc", "dirichlet"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["bc"] == "dirichlet" and doc["m"] == 2
    assert len(doc["log_zeros"]) == 2 and doc["log_zeros"][-1] == 0.0
    assert len(doc["crit_values"]) == 2
    assert doc["energy_grad"] == pytest.approx(doc["energy_pot"], rel=1e-8)


def test_solve_plane_dump(capsys):
    assert run(["solve", "--p", "40", "--m", "2", "--bc", "plane",
                "--samples", "32"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["bc"] == "plane"
    assert len(doc["samples"]["t"]) <= 32
    assert abs(doc["samples"]["u"][0] - 1.0) < 1e-6


def test_solve_csv_samples(capsys):
    assert run(["solve", "--p", "40", "--m", "1", "--bc", "dirichlet",
                "--samples", "50", "--format", "csv"]) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "r,u"
    assert 2 <= len(lines) <= 52
    r_last, u_last = map(float, lines[-1].split(","))
    assert r_last == pytest.approx(1.0)
    assert abs(u_last) < 1e-8


def test_solve_csv_without_samples_rejected(capsys):
    assert run(["solve", "--p", "40", "--m", "1", "--bc", "dirichlet",
                "--format", "csv"]) == 1


def test_verify_csv(capsys):
    assert run(["verify", "--m", "1", "--alpha", "0", "--bc", "dirichlet",
                "--p", "40,80"]) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "quantity,bc,m,alpha,i,p,computed,limit,abs_err"
    data = [line.split(",") for line in lines[1:]]
    assert all(row[1] == "dirichlet" for row in data)
    center = [row for row in data if row[0] == "|u(s_i)|"]
    assert {row[5] for row in center} == {"40", "80"}
    assert float(center[0][6]) == pytest.approx(math.exp(0.5), rel=0.05)


def test_verify_json_extrapolation_block(capsys):
    assert run(["verify", "--m", "1", "--bc", "dirichlet", "--p", "40,80",
                "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert all({"quantity", "rows", "extrapolated", "rate", "monotone"} <= set(d)
               for d in doc)


def test_verify_validation(capsys):
    assert run(["verify", "--m", "1", "--bc", "neumann", "--p", "40,80"]) == 1
    assert run(["verify", "--m", "1", "--bc", "dirichlet", "--p", "80,40"]) == 1


def test_bubble_csv(capsys):
    assert run(["bubble", "--i", "1", "--alpha", "0", "--rmin", "1",
                "--rmax", "20", "--n", "40"]) == 0
    out, err = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "r,Z,expZ"
    assert len(lines) == 41
    assert "mass" in err  # integral checks reported on the diagnostic stream


def test_bubble_json_checks(capsys):
    assert run(["bubble", "--i", "1", "--alpha", "0", "--format", "json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["checks"]["mass"]["rel_err"] < 1e-8
    split = doc["checks"]["split"]
    assert split["inner"] == pytest.approx(split["inner_expected"], rel=1e-8)
    assert split["outer"] == pytest.approx(split["outer_expected"], rel=1e-8)
    assert len(doc["samples"]) == 200


def test_bubble_validation(capsys):
    assert run(["bubble", "--i", "-1"]) == 1
    assert run(["bubble", "--i", "1", "--rmin", "5", "--rmax", "2"]) == 1


def test_sweep(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# demo sweep\n"
        "p = 30,60\n"
        "m = 1..2\n"
        "alpha = 0\n"
        "bc = dirichlet\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert run(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
    files = sorted(f.name for f in out_dir.iterdir())
    assert "index.json" in files
    assert len(files) == 5  # 4 combos + index
    doc = json.loads((out_dir / "index.json").read_text())
    assert doc == sorted(doc)
    one = json.loads((out_dir / doc[0]).read_text())
    assert one["bc"] == "dirichlet"
    # determinism: a second run reproduces the files byte for byte
    blobs = {f: (out_dir / f).read_text() for f in doc}
    out_dir2 = tmp_path / "out2"
    assert run(["sweep", "--config", str(cfg), "--out", str(out_dir2)]) == 0
    for f, blob in blobs.items():
        assert (out_dir2 / f).read_text() == blob


def test_sweep_validation(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 30\nm = 1\nalpha = 0\nbc = neumann\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    cfg2 = tmp_path / "bad2.cfg"
    cfg2.write_text("p = 30\nm = 1\nbc = dirichlet\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg2), "--out", str(tmp_path / "o")]) == 1
    cfg3 = tmp_path / "bad3.cfg"
    cfg3.write_text("frobnicate\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg3), "--out", str(tmp_path / "o")]) == 1


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert run(["constants", "--m", "2", "--out", str(target)]) == 0
    text = target.read_text()
    assert text.startswith("i,theta,")
    assert run(["constants", "--m", "2", "--out",
                str(tmp_path / "missing" / "t.csv")]) == 1


def test_unwritable_output_is_validation_error(tmp_path, capsys):
    blocked = tmp_path / "dir"
    blocked.mkdir()
    assert run(["constants", "--m", "2", "--out", str(blocked)]) == 1


@pytest.mark.parametrize("flag, value", [("--p", "inf"), ("--p", "nan"), ("--alpha", "nan"),
                                         ("--alpha", "inf")])
def test_solve_non_finite_exit_code(capsys, flag, value):
    argv = ["solve", "--p", "50", "--alpha", "0", "--m", "2", "--bc", "plane"]
    argv[argv.index(flag) + 1] = value
    assert run(argv) == 1
    _, err = _capture(capsys)
    assert "nodal: error:" in err


@pytest.mark.parametrize("argv", [["bubble", "--i", "1", "--alpha", "inf"],
                                  ["constants", "--m", "3", "--alpha", "nan"]])
def test_non_finite_alpha_exit_code(capsys, argv):
    assert run(argv) == 1
    _, err = _capture(capsys)
    assert "alpha must be finite" in err


def test_step_limit_exit_code(capsys, monkeypatch):
    from nodal import radial_ode

    monkeypatch.setattr(radial_ode, "_MAX_STEPS", 50)
    assert run(["solve", "--p", "78.5", "--m", "2", "--bc", "plane"]) == 2
    _, err = _capture(capsys)
    assert "numerical failure" in err and "nsteps" in err
