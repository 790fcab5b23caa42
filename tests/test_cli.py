"""End-to-end tests of the command-line interface, run in process."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from winguide import cli
from winguide.cli import main
from winguide.errors import ValidationError, WaveguideError
from winguide.geometry import SolverSettings

LAMBDA1_A1_D2 = 0.934889771227259
U_C_AT_HALF = -0.5274006716845234


@pytest.fixture()
def single_cfg(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"d": 2.0, "windows": [{"center": 0.0, "half_width": 1.0}]}))
    return str(path)


@pytest.fixture()
def double_cfg(tmp_path):
    path = tmp_path / "double.json"
    path.write_text(
        json.dumps(
            {
                "case": "double",
                "a_minus": 1.0,
                "a_plus": 1.0,
                "d": 2.0,
                "l_values": [6.0, 7.0],
            }
        )
    )
    return str(path)


def _strict_loads(text: str):
    def reject(token):
        raise AssertionError(f"non-strict JSON token {token!r} in CLI output")

    return json.loads(text, parse_constant=reject)


def test_modes_json_stdout(single_cfg, capsys):
    assert main(["modes", single_cfg]) == 0
    payload = _strict_loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert len(payload["modes"]) == 1
    rec = payload["modes"][0]
    assert rec["lambda"] == pytest.approx(LAMBDA1_A1_D2, abs=1e-12)
    assert rec["parity"] == "even"
    assert rec["index"] == 1
    assert rec["source"] == "spectral"


def test_modes_csv(single_cfg, capsys):
    assert main(["modes", single_cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,lambda,parity,c,source"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "1"
    # shortest round-trip float formatting must reproduce the value exactly
    assert float(cells[1]) == pytest.approx(LAMBDA1_A1_D2, abs=1e-12)
    assert cells[2] == "even"
    assert cells[4] == "spectral"


def test_modes_out_file(single_cfg, tmp_path, capsys):
    out = tmp_path / "modes.json"
    assert main(["modes", single_cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = _strict_loads(out.read_text())
    assert payload["modes"][0]["lambda"] == pytest.approx(LAMBDA1_A1_D2, abs=1e-12)


def test_modes_csv_pair_leaves_c_empty(tmp_path, capsys):
    # a window pair has no c; its cell is empty, as in the sweep CSV
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"d": 2, "a_minus": 1, "a_plus": 1, "l": 4}))
    assert main(["modes", str(path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 5
        assert cells[3] == ""
        assert cells[4] == "spectral"


@pytest.mark.parametrize(
    "command, extra",
    [
        ("modes", ()),
        ("coeff-c", ("--lambda", "0.5")),
        ("sweep", ("--l", "6")),
        ("oracle", ("--h", "0.1", "--L", "11", "--count", "1", "--levels", "1")),
        ("verify", ()),
    ],
)
def test_out_in_missing_directory_exit_two(
    single_cfg, double_cfg, tmp_path, capsys, monkeypatch, command, extra
):
    # the output path is rejected before the command computes anything
    def computed(*args, **kwargs):
        raise AssertionError(f"{command} computed before its --out was checked")

    for name in ("compute_modes", "solve_U", "sweep_l", "fd_eigenvalues", "verify_report"):
        monkeypatch.setattr(cli, name, computed)
    config = double_cfg if command in ("sweep", "verify") else single_cfg
    out = tmp_path / "missing" / "out.txt"
    assert main([command, config, *extra, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output file")
    assert "Traceback" not in captured.err
    assert not out.parent.exists()

    # an --out that names an existing directory gets the text `_emit`'s open gave
    assert main([command, config, *extra, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot write output file {str(tmp_path)!r}: "
        f"[Errno 21] Is a directory: {str(tmp_path)!r}\n"
    )


def test_coeff_c_frozen_value(single_cfg, capsys):
    assert main(["coeff-c", single_cfg, "--lambda", "0.5"]) == 0
    payload = _strict_loads(capsys.readouterr().out)
    assert payload["c"] == pytest.approx(U_C_AT_HALF, abs=1e-10)
    assert payload["lambda"] == 0.5
    assert payload["half_width"] == 1.0
    assert payload["d"] == 2.0
    assert payload["energy_residual"] <= 1e-6


def test_coeff_c_rejects_two_windows(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(
        json.dumps(
            {
                "d": 2.0,
                "windows": [
                    {"center": -4.0, "half_width": 1.0},
                    {"center": 4.0, "half_width": 1.0},
                ],
            }
        )
    )
    assert main(["coeff-c", str(path), "--lambda", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_coeff_c_exit_codes(single_cfg, capsys):
    # threshold violation is a validation problem
    assert main(["coeff-c", single_cfg, "--lambda", "1.5"]) == 2
    # driving exactly at an eigenvalue hits the resolvent pole
    assert main(["coeff-c", single_cfg, "--lambda", repr(LAMBDA1_A1_D2)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err


def test_bad_config_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["modes", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["modes", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"d": 2.0, "windows": [], "what": 1}))
    assert main(["modes", str(unknown)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, document",
    [
        ("modes", '{"d": 1' + "0" * 400 + ', "windows": [{"center": 0.0, "half_width": 1.0}]}'),
        ("verify", '{"a_minus": 1.0, "a_plus": 1.0, "d": 2.0, "l_values": [1' + "0" * 400 + "]}"),
        ("modes", '{"d": ' + "1" * 5000 + "}"),
    ],
    ids=["modes-float-overflow", "verify-float-overflow", "modes-digit-limit"],
)
def test_huge_integer_config_exit_two(tmp_path, capsys, command, document):
    path = tmp_path / "huge.json"
    path.write_text(document)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_basis_order_beyond_ceiling_exit_two(tmp_path, capsys):
    path = tmp_path / "order.json"
    path.write_text(
        '{"d": 2.0, "windows": [{"center": 0.0, "half_width": 1.0}], '
        '"settings": {"basis_order": 1' + "0" * 399 + "}}"
    )
    assert main(["modes", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: basis_order must be an integer in [4, 128]")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "window, quadrature",
    [
        ({"center": 0.0, "half_width": 1e6}, {}),
        ({"center": 0.0, "half_width": 1.0}, {"xi_max": 1e9}),
        ({"center": 0.0, "half_width": 1.0}, {"panel_width": 1e-9}),
    ],
)
def test_oversized_window_table_exit_two_before_any_table(
    tmp_path, capsys, monkeypatch, window, quadrature
):
    # the tables would need 1.5e9, 1.2e10 and 2.4e12 nodes (390 GB of beta and up);
    # the panels are counted before any array is built
    from winguide import assembly

    def no_table(*args, **kwargs):
        raise AssertionError("no window table may be built for an oversized request")

    monkeypatch.setattr(assembly, "beta_matrix", no_table)
    path = tmp_path / "huge_table.json"
    path.write_text(json.dumps(
        {"d": 2.0, "windows": [window], "settings": {"quadrature": quadrature}}
    ))
    assert main(["modes", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"more than {assembly.MAX_TABLE_NODES // SolverSettings().panel_points}" in err
    assert "Traceback" not in err


def test_verify_empty_sigma_star_exit_two(tmp_path, capsys):
    # the single window's only mode (0.935) lies above the band (0.01, 0.7)
    document = {"a_minus": 1.0, "a_plus": 1.0, "d": 2.0, "l_values": [4.0, 5.0],
                "settings": {"threshold_margin": 0.3}}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(document))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sigma* is empty")
    assert "Traceback" not in err


def test_verify_with_one_window_below_band(tmp_path, capsys):
    # a = 0.5 has no mode below 0.7, so sigma* holds only the a = 3 modes
    document = {"a_minus": 3.0, "a_plus": 0.5, "d": 2.0, "l_values": [4.0, 4.5],
                "settings": {"threshold_margin": 0.3}}
    path = tmp_path / "one_sided.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "report.json"
    assert main(["verify", str(path), "--out", str(out)]) in (0, 4)
    report = _strict_loads(out.read_text())
    assert report["single_windows"]["plus"]["modes"] == []
    lowest = report["single_windows"]["minus"]["modes"][0]["lambda"]
    assert report["verdicts"]["ground_below_min_single"]["min_single"] == lowest
    capsys.readouterr()


def test_undecodable_config_exit_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"d": 2.0}')
    assert main(["modes", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config file")


def test_sweep_csv_stdout(double_cfg, capsys):
    assert main(["sweep", double_cfg, "--l", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("l,index,lambda,lambda_star,delta,")
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.startswith("6.0,")
    # decimal separator is '.', field separator is ','
    assert ";" not in lines[1]


def test_sweep_bad_l_list(double_cfg, capsys):
    assert main(["sweep", double_cfg, "--l", "6,oops"]) == 2
    assert main(["sweep", double_cfg, "--l", ","]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "override",
    [{"a_minus": "x"}, {"l_values": ["a"]}, {"d": None}, {"a_minus": True}],
)
def test_experiment_config_bad_numbers_exit_two(tmp_path, capsys, override):
    document = {"case": "double", "a_minus": 1.0, "a_plus": 1.0, "d": 2.0, "l_values": [6.0]}
    document.update(override)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    for command in ("verify", "sweep"):
        assert main([command, str(path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_verify_unseparated_l_values_exit_two(tmp_path, capsys):
    document = {"case": "double", "a_minus": 1.0, "a_plus": 1.0, "d": 2.0,
                "l_values": [1.5, 1.6, 1.7]}
    path = tmp_path / "close.json"
    path.write_text(json.dumps(document))
    for command in ("verify", "sweep"):
        assert main([command, str(path)]) == 2
        assert "separated regime" in capsys.readouterr().err


def test_repeated_l_values_exit_two(tmp_path, capsys):
    # a repeated l would be solved again and fitted as one abscissa
    document = {"a_minus": 1.0, "a_plus": 1.0, "d": 2.0, "l_values": [5.0, 5.0, 5.0]}
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(document))
    for argv in (["verify", str(path)], ["sweep", str(path)], ["sweep", str(path), "--l", "6,5,6"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: l values must be distinct")
        assert "Traceback" not in err


def test_oracle_json_strict(single_cfg, capsys):
    assert main(
        ["oracle", single_cfg, "--h", "0.1", "--L", "11", "--count", "1", "--levels", "1"]
    ) == 0
    payload = _strict_loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    rec = payload["records"][0]
    assert rec["source"] == "fd_oracle"
    assert rec["h"] == 0.1
    assert rec["L"] == 11.0
    assert abs(rec["lambda"] - LAMBDA1_A1_D2) < 1e-2
    # a single level has no error estimate; infinity must not leak into JSON
    assert rec["error_estimate"] is None
    assert payload["diagnostics"]["perron"]["ok"] is True


def test_oracle_reports_mirror_counts(single_cfg, tmp_path, capsys):
    # a centred window is solved as its even and odd halves, each with its own
    # count below 1; an off-centre one as the full box
    argv = ["--h", "0.1", "--L", "12", "--count", "2", "--levels", "1"]
    assert main(["oracle", single_cfg, *argv]) == 0
    diagnostics = _strict_loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostics["mirror"] == {"even": 1, "odd": 0}
    assert diagnostics["count_below_one"] == 1
    path = tmp_path / "offcentre.json"
    path.write_text(json.dumps({"d": 2.0, "windows": [{"center": 0.3, "half_width": 1.0}]}))
    assert main(["oracle", str(path), *argv]) == 0
    diagnostics = _strict_loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostics["mirror"] is None
    assert diagnostics["count_below_one"] == 1


def test_oracle_grid_validation(single_cfg, capsys):
    assert main(["oracle", single_cfg, "--h", "0.2", "--L", "11"]) == 2
    assert main(["oracle", single_cfg, "--h", "0.1", "--L", "5"]) == 2
    capsys.readouterr()


def test_verify_failing_exit_four(double_cfg, tmp_path, capsys):
    # two separations cannot support a three-point fit, so the report is
    # still written but carries failing verdicts
    out = tmp_path / "report.json"
    assert main(["verify", double_cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "failing verdicts" in err
    payload = _strict_loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["case"] == "double"
    assert any(not v.get("pass") for v in payload["verdicts"].values())


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["modes"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def _error_classes(base):
    for sub in base.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_error_class_maps_to_its_exit_code(single_cfg, capsys, monkeypatch):
    classes = [WaveguideError, *_error_classes(WaveguideError)]
    assert len(classes) >= 10
    for cls in classes:
        def fail(*args, **kwargs):
            raise cls(f"raised {cls.__name__}")

        monkeypatch.setattr(cli, "compute_modes", fail)
        expected = 2 if issubclass(cls, ValidationError) else 3
        assert main(["modes", single_cfg]) == expected, cls.__name__
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"raised {cls.__name__}" in captured.err


def test_cli_import_loads_no_heavy_scipy_modules():
    heavy = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "scipy.optimize")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import json, sys, winguide.cli; "
        f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout) == []


def test_cli_and_oracle_imports_load_no_scipy():
    # the Galerkin path and the FD oracle are both numpy-only
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import json, sys, winguide.cli; "
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy')); "
        "import winguide.fd_oracle; "
        "print(json.dumps([loaded, sorted(m for m in sys.modules if m.startswith('scipy'))]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout) == [[], []]
