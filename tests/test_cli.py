import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from diracfem import analysis, cli
from diracfem.assembly import is_galerkin
from diracfem.cli import (
    EXIT_CONFIG,
    EXIT_PHYSICS,
    EXIT_SOLVER,
    RunConfig,
    main,
)
from diracfem.eigensolver import Spectrum

from oracles import (
    GALERKIN_ORACLE_RTOL,
    dense_rayleigh_bindings,
    dense_two_sided_bindings,
)

# small, fast solve configuration shared by the output-format tests
FAST = ["--Z", "1", "--abs-kappa", "1", "--scheme", "hermite-galerkin",
        "--n", "40", "--a", "1e-6", "--b", "40", "--mesh-gamma", "8",
        "--levels", "2"]
# the README pathology mesh
PATHOLOGY = ["--Z", "1", "--abs-kappa", "1", "--n", "100", "--a", "1e-6", "--b", "150",
             "--mesh-gamma", "8", "--levels", "6"]


class TestConfig:
    def test_defaults_finalize(self):
        cfg = RunConfig().finalize()
        assert cfg.abs_kappa == 1
        assert cfg.a == 1e-5
        assert cfg.b == 3.0 * (6 + 1 + 1) ** 2  # 3 (levels + |kappa| + 1)^2 / Z
        assert cfg.matching_tolerance() == 1e-5  # hermite-supg default scheme

    def test_b_scales_with_charge(self):
        # with the levels and |kappa| asked for: the last level's <r> grows
        # as its principal quantum number squared over Z
        assert RunConfig(Z=12.0).finalize().b == pytest.approx(16.0)
        assert RunConfig(Z=12.0, abs_kappa=2, levels=3).finalize().b == pytest.approx(9.0)
        assert RunConfig(Z=12.0, kappa=-3, levels=3).finalize().b == pytest.approx(12.25)

    def test_linear_match_tol_default(self):
        cfg = RunConfig(scheme="linear-galerkin").finalize()
        assert cfg.matching_tolerance() == 1e-3
        assert RunConfig(scheme="linear-galerkin", match_tol=0.05).finalize() \
            .matching_tolerance() == 0.05


#: Per RunConfig field: its flag, a raw value (None for an on/off flag), and
#: the value it parses to.
FIELD_SAMPLES = {
    "Z": ("--Z", "12", 12.0),
    "kappa": ("--kappa", "-2", -2),
    "abs_kappa": ("--abs-kappa", "2", 2),
    "scheme": ("--scheme", "linear-galerkin", "linear-galerkin"),
    "radius": ("--radius", "1e-4", 1e-4),
    "a": ("--a", "1e-6", 1e-6),
    "b": ("--b", "40", 40.0),
    "n": ("--n", "50", 50),
    "mesh_gamma": ("--mesh-gamma", "7.5", 7.5),
    "levels": ("--levels", "4", 4),
    "match_tol": ("--match-tol", "1e-4", 1e-4),
    "free_lower_slope": ("--free-lower-slope", None, True),
    "mode": ("--mode", "coincidence", "coincidence"),
    "format": ("--format", "csv", "csv"),
    "out": ("--out", "result.txt", "result.txt"),
    "n_list": ("--n-list", "50,100", (50, 100)),
}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_every_field_settable_from_its_flag(name):
    flag, raw, value = FIELD_SAMPLES[name]
    args = vars(cli._make_parser().parse_args([flag] if raw is None else [flag, raw]))
    assert set(args) == {f.name for f in fields(RunConfig)}  # the flags are the fields
    assert args[name] == value


# --- a bad value of each flag ---------------------------------------------

#: A fast solve, as flags: a case's own flags come after them and override them
BASE = ["--Z", "1", "--scheme", "hermite-galerkin", "--n", "40", "--a", "1e-6", "--b", "40",
        "--mesh-gamma", "8", "--levels", "2", "--format", "csv"]
COINCIDENCE = ["--mode", "coincidence"]
CONVERGENCE = ["--mode", "convergence"]

#: Per bad value: its flags ("{tmp}" is the test's directory), the exit code
#: the error rule gives (exit 3 for a value that defines the operator or the
#: domain, exit 2 for any other), and the name its one stderr line holds: the
#: key, its flag, or the library parameter it maps to
BAD_VALUES = [
    pytest.param(["--Z", "0.5"], EXIT_PHYSICS, "Z", id="Z"),
    pytest.param(["--kappa", "0"], EXIT_PHYSICS, "kappa", id="kappa"),
    pytest.param(["--kappa", "1", "--abs-kappa", "1"], EXIT_CONFIG, "kappa",
                 id="kappa-with-abs_kappa"),
    pytest.param(["--kappa", "-1"] + COINCIDENCE, EXIT_CONFIG, "abs_kappa",
                 id="kappa-coincidence"),
    pytest.param(["--abs-kappa", "0"], EXIT_CONFIG, "abs_kappa", id="abs_kappa"),
    *[pytest.param(["--radius", radius], EXIT_PHYSICS, "R", id=f"radius-{radius}")
      for radius in ("-1", "0", "nan", "inf", "5e-324")],
    pytest.param(["--a", "-1"], EXIT_PHYSICS, "a", id="a"),
    pytest.param(["--b", "-1"], EXIT_PHYSICS, "b", id="b"),
    pytest.param(["--n", "0"], EXIT_CONFIG, "n", id="n"),
    pytest.param(["--n", "0"] + CONVERGENCE, EXIT_CONFIG, "n", id="n-convergence"),
    pytest.param(["--mesh-gamma", "-1"], EXIT_PHYSICS, "gamma", id="mesh_gamma"),
    *[pytest.param(["--mesh-gamma", "-1"] + mode, EXIT_PHYSICS, "gamma", id=f"mesh_gamma-{name}")
      for name, mode in [("compare-schemes", ["--mode", "compare-schemes"]),
                         ("coincidence", COINCIDENCE), ("convergence", CONVERGENCE)]],
    pytest.param(["--levels", "0"], EXIT_CONFIG, "levels", id="levels"),
    pytest.param(["--levels", "-2"], EXIT_CONFIG, "levels", id="levels-negative"),
    pytest.param(["--levels", "0"] + COINCIDENCE, EXIT_CONFIG, "levels", id="levels-coincidence"),
    *[pytest.param(["--match-tol", tol], EXIT_CONFIG, "match_tol", id=f"match_tol-{tol}")
      for tol in ("0.5", "nan", "0")],
    pytest.param(["--match-tol", "0.5"] + COINCIDENCE, EXIT_CONFIG, "match_tol",
                 id="match_tol-coincidence"),
    # a pencil too small to solve exited 4: match_tol was read after the solves
    *[pytest.param(["--scheme", "linear-galerkin", "--n", "1", "--match-tol", "0.5"] + mode,
                   EXIT_CONFIG, "match_tol", id=f"match_tol-before-{name}")
      for name, mode in [("solve", []), ("compare-schemes", ["--mode", "compare-schemes"]),
                         ("coincidence", COINCIDENCE), ("convergence", CONVERGENCE)]],
    pytest.param(["--scheme", "linear-galerkin", "--free-lower-slope"], EXIT_CONFIG,
                 "free_lower_slope", id="free_lower_slope-linear"),
    pytest.param(["--scheme", "linear-galerkin", "--free-lower-slope"] + COINCIDENCE, EXIT_CONFIG,
                 "free_lower_slope", id="free_lower_slope-linear-coincidence"),
    # a missing directory, or a directory as the file, ended in a traceback
    *[pytest.param(["--out", f"{{tmp}}/{target}"], EXIT_CONFIG, "--out", id=f"out-{target}")
      for target in ("missing-dir/result.csv", ".")],
    *[pytest.param(["--n-list", n_list] + CONVERGENCE, EXIT_CONFIG, "n_values",
                   id=f"n_list-{n_list}") for n_list in ("100,50", "50,50")],
    pytest.param(["--n-list", "0,10"] + CONVERGENCE, EXIT_CONFIG, "n", id="n_list-0,10"),
]


@pytest.mark.parametrize("given, code, name", BAD_VALUES)
def test_bad_value_of_each_key_exits_by_the_rule_naming_it(given, code, name, tmp_path, capfd):
    flags = [f.replace("{tmp}", str(tmp_path)) for f in given]
    assert main(BASE + ["--out", str(tmp_path / "result.csv")] + flags) == code
    out, err = capfd.readouterr()
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == []
    assert err.startswith("config error: " if code == EXIT_CONFIG else "physics error: ")
    assert err.count("\n") == 1
    assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", err.replace(str(tmp_path), ""))


@pytest.mark.parametrize("flags", [
    pytest.param(["--n-list", "100,50"], id="solve-n-list"),
    # compare-schemes reads no scheme key, and applies the flag to its Hermite schemes only
    pytest.param(["--mode", "compare-schemes", "--scheme", "linear-galerkin",
                  "--free-lower-slope", "--n", "100", "--match-tol", "1e-4"],
                 id="compare-schemes-linear-free-lower-slope"),
])
def test_a_key_the_mode_does_not_read_is_not_checked(flags, capfd):
    assert main(BASE + flags) == 0
    assert capfd.readouterr().err == ""


class TestMain:
    def test_parser_built_once(self, monkeypatch, capsys):
        # main parses with the parser built at import; --help still lists every flag
        def refuse(*args, **kwargs):
            raise AssertionError("argument parser rebuilt on a call")

        monkeypatch.setattr(cli.argparse.ArgumentParser, "add_argument", refuse)
        assert main(["--scheme", "hermite-galerkin", "--n", "40", "--a", "1e-6", "--b", "40",
                     "--mesh-gamma", "8", "--levels", "2", "--format", "csv"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for field in fields(RunConfig):
            assert "--" + field.name.replace("_", "-") in out

    @pytest.mark.parametrize("levels", [6, 3])
    @pytest.mark.parametrize("abs_kappa", [2, 3])
    @pytest.mark.parametrize("z", [1, 12, 50, 92])
    def test_default_domain_holds_the_levels(self, z, abs_kappa, levels, capsys):
        # every other setting left at its default: the default domain must
        # grow with the levels and |kappa| asked for, or the upper levels do
        # not fit in it and the run exits 4
        argv = ["--Z", str(z), "--abs-kappa", str(abs_kappa), "--levels", str(levels)]
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {r["label"] for r in rows} == {"genuine"}
        assert sorted(r["level"] for r in rows if r["kappa"] < 0) == list(range(1, levels + 1))

    @pytest.mark.parametrize("key, value", [
        ("mode", "fancy"), ("scheme", "fancy"), ("format", "fancy"),
        # the verify-tau mode is gone, its tau algebra moved to the test oracles
        ("mode", "verify-tau")])
    def test_bad_choice_exits_2_listing_the_choices(self, key, value, capsys):
        # argparse's choices, fed by _CHOICES, are the one choice check
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--" + key, value])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"argument --{key}: invalid choice: {value!r}" in err
        assert all(choice in err.split("choose from", 1)[1] for choice in cli._CHOICES[key])
        assert cli._CHOICES["mode"] == ("solve", "compare-schemes", "convergence", "coincidence")

    def test_the_config_environment_variable_is_ignored(self, tmp_path, monkeypatch, capsys):
        # DIRAC_FEM_CONFIG named a default config file, read on every call
        cfg = tmp_path / "env.cfg"
        cfg.write_text("mode = bogus\n")
        monkeypatch.setenv("DIRAC_FEM_CONFIG", str(cfg))
        assert main(FAST) == 0
        assert capsys.readouterr().err == ""

    def test_a_bad_n_list_names_the_flag(self, capsys):
        # argparse names the type function, which was a lambda
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--mode", "convergence", "--n-list", "10,x"])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "argument --n-list: invalid int_list value: '10,x'" in err
        assert "<lambda>" not in err

    def test_non_finite_charge_exits_3(self, capsys):
        code = main(["--Z", "nan", "--b", "60", "--n", "20", "--levels", "1"])
        assert code == EXIT_PHYSICS
        assert "physics error" in capsys.readouterr().err

    @pytest.mark.parametrize("charge", ["0", "-1", "nan"])
    def test_bad_charge_exits_3(self, charge, capsys):
        # Z=0 used to end in a ZeroDivisionError deriving b = 60/Z, and Z=-1
        # in a complaint about the domain that b = -60 gave
        code = main(["--Z", charge, "--n", "20", "--levels", "1"])
        assert code == EXIT_PHYSICS
        assert "nuclear charge" in capsys.readouterr().err

    def test_radius_alone_smears_the_nucleus(self, capsys):
        # smearing the charge over R raises the 1s level above the point
        # nucleus's; the loose match tolerance still labels it against the
        # point-nucleus reference
        argv = ["--Z", "92", "--kappa", "-1", "--scheme", "hermite-galerkin", "--n", "100",
                "--a", "1e-7", "--b", "1", "--mesh-gamma", "9", "--levels", "1",
                "--match-tol", "1e-2", "--format", "json"]
        ground = []
        for extra in ([], ["--radius", "1e-4"]):
            assert main(argv + extra) == 0
            (row,) = json.loads(capsys.readouterr().out)["rows"]
            ground.append(row["binding"])
        point, extended = ground
        assert point < extended < 0.99 * point

    @pytest.mark.parametrize("flag, value, name", [
        ("--mesh-gamma", "inf", "gamma"), ("--mesh-gamma", "800", "gamma"),
        ("--mesh-gamma", "700", "gamma"), ("--b", "inf", "b")])
    def test_bad_mesh_parameter_exits_3_naming_it(self, flag, value, name, capfd):
        # each printed numpy warnings, then blamed the nodes for not increasing
        code = main(FAST + [flag, value])
        assert code == EXIT_PHYSICS
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("physics error: ") and f"parameter {name}=" in err
        assert err.count("\n") == 1

    def test_the_mass_flag_is_gone(self):
        # the mass is the unit of atomic units, so argparse refuses the flag
        with pytest.raises(SystemExit) as exc:
            main(["--m", "1"])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [("--lev", "2"), ("--form", "csv"),
                                             ("--c-value", "100"), ("--reality-tol", "1e-7"),
                                             ("--unknown-key", "3"), ("--config", "x.cfg")])
    def test_a_flag_not_spelled_in_full_or_removed_exits_2(self, flag, value, capsys):
        # --lev and --form ran as --levels and --format (exit 0); the CLI solves
        # at c = SPEED_OF_LIGHT, the reality check is a constant, and the
        # command line is the one input (no key = value file)
        with pytest.raises(SystemExit) as exc:
            main(FAST + [flag, value])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_the_negated_bool_flag_is_spelled_in_full(self):
        args = cli._PARSER.parse_args(["--free-lower-slope", "--no-free-lower-slope"])
        assert args.free_lower_slope is False

    @pytest.mark.parametrize("name", [name for name, value_type in cli._KEY_TYPES.items()
                                      if value_type is not str])
    def test_a_value_its_flag_does_not_parse_exits_2_naming_the_flag(self, name, capsys):
        # argparse's type is the one value check: a number flag refuses "x", and
        # the on/off flag takes no value (there is no yes/no grammar)
        flag = "--" + name.replace("_", "-")
        given = [flag + "=maybe"] if cli._KEY_TYPES[name] is bool else [flag, "x"]
        with pytest.raises(SystemExit) as exc:
            main(FAST + given)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search(rf"argument {re.escape(flag)}(/--no-{re.escape(flag[2:])})?: "
                         r"(invalid \w+ value: 'x'|ignored explicit argument 'maybe')$",
                         err.splitlines()[-1])
        assert "<lambda>" not in err

    def test_physics_invariant_exits_3(self, capsys):
        code = main(["--Z", "200", "--kappa", "1", "--n", "10"])
        assert code == EXIT_PHYSICS
        assert "physics error" in capsys.readouterr().err

    def test_insufficient_levels_exits_4(self, capsys):
        code = main(["--Z", "1", "--kappa", "-1", "--scheme", "hermite-galerkin",
                     "--n", "8", "--b", "5", "--levels", "6"])
        assert code == EXIT_SOLVER
        assert "solver error" in capsys.readouterr().err

    def test_coincidence_on_an_empty_window_exits_4_naming_the_kappa(self, capfd):
        # a one-node mesh holds no level of either sign: the report raised
        # ValueError("empty bound spectrum") and the run ended in a traceback
        code = main(["--mode", "coincidence", "--abs-kappa", "1", "--n", "1"])
        assert code == EXIT_SOLVER
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("solver error: kappa=1: no bound level found; "
                              "the window held 0 computed level(s): ")
        assert err.count("\n") == 1

    def test_small_misses_blame_the_fixed_lower_slope(self, capsys):
        # the README pathology mesh: the SUPG ground level misses by 1.8e-4,
        # 18 times the 1e-5 Hermite tolerance
        code = main(PATHOLOGY + ["--scheme", "hermite-supg", "--levels", "3"])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "try --free-lower-slope" in err
        assert "too coarse" not in err

    @pytest.mark.parametrize("n", [200, 8])
    def test_too_few_levels_blame_the_domain(self, n, capsys):
        # on b = 5 the window holds the 1s level only: the hint used to be
        # empty, although the domain is far too short for the sixth level
        code = main(["--Z", "1", "--kappa", "-1", "--scheme", "hermite-galerkin",
                     "--n", str(n), "--b", "5", "--levels", "6"])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "only 0 of 6 genuine levels found; the window held 1 computed level" in err
        assert "larger --b" in err
        assert "--free-lower-slope" not in err and "too coarse" not in err

    @pytest.mark.parametrize("b, held", [([], 5), (["--b", "1000"], 3)])
    def test_too_few_levels_on_a_long_domain_blame_the_mesh(self, b, held, capsys):
        # n = 3 on the derived domain (b = 3*(6 + 1 + 1)^2 = 192) or a longer
        # one: the window holds 5 levels, and on b = 1000 only 3, so a longer
        # domain does not help and the hint must point at the mesh
        code = main(["--Z", "1", "--kappa", "-1", "--scheme", "hermite-galerkin",
                     "--n", "3", "--levels", "6"] + b)
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert f"the window held {held} computed level(s)" in err
        assert "too coarse" in err and "larger --n" in err
        assert "too short" not in err and "larger --b" not in err

    @pytest.mark.parametrize("extra, worst, tol", [
        (["--b", "40", "--levels", "2", "--n", "3"], 3.4e-2, 1e-5),
        (["--match-tol", "1e-9"], 7.5e-7, 1e-9),
        (["--match-tol", "1e-9", "--free-lower-slope"], 4.1e-8, 1e-9)])
    def test_large_misses_blame_the_mesh(self, extra, worst, tol, capsys):
        # a miss of more than 100 times the tolerance is no slope effect:
        # with --free-lower-slope the last run still misses by 4.1e-8
        code = main(PATHOLOGY + ["--scheme", "hermite-galerkin"] + extra)
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "--free-lower-slope" not in err
        assert "too coarse" in err and "--n" in err and "--match-tol" in err
        quoted = re.search(r"by up to (\S+) relative, against the match tolerance (\S+):", err)
        assert float(quoted.group(1)) == pytest.approx(worst, rel=0.05)
        assert float(quoted.group(2)) == tol

    def test_radius_misses_blame_the_point_reference(self, capsys):
        # the finite nucleus moves the levels by up to 8.9e-4 relative of the
        # point-nucleus reference they are labelled against: no slope or mesh
        # effect, which the hint used to blame
        code = main(["--Z", "92", "--kappa", "-1", "--scheme", "hermite-supg", "--n", "200",
                     "--a", "1e-7", "--b", "1", "--mesh-gamma", "9", "--levels", "3",
                     "--radius", "1e-4"])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "--radius" in err and "point-nucleus reference" in err and "--match-tol" in err
        assert "--free-lower-slope" not in err and "too coarse" not in err

    @pytest.mark.parametrize("radius", ["1e160", "1e-300"])
    def test_extreme_radius_exits_with_a_documented_code(self, radius, capsys):
        # R = 1e160 raised a builtin OverflowError from R**2 (a traceback,
        # exit 1), and R = 1e-300 warned of a division by zero
        code = main(["--scheme", "hermite-galerkin", "--Z", "1", "--abs-kappa", "1", "--n", "40",
                     "--levels", "3", "--radius", radius])
        assert code == EXIT_SOLVER
        assert "genuine levels found" in capsys.readouterr().err

    def test_solve_table_output(self, capsys):
        assert main(FAST) == 0
        out = capsys.readouterr().out
        assert "kappa=+1" in out and "kappa=-1" in out
        assert "coincidence-spurious" in out

    def test_an_instilled_row_labels_its_line(self):
        # the README pathology mesh with the free lower slope: line 6 pairs
        # the genuine kappa=-1 level 6 with an instilled kappa=+1 row, and the
        # table printed it genuine
        argv = PATHOLOGY + ["--scheme", "hermite-supg", "--free-lower-slope"]
        rows = _json_rows(argv)
        assert [r["label"] for r in rows if r["kappa"] == 1][5] == "instilled-spurious"
        assert [r["label"] for r in rows if r["kappa"] == -1][5] == "genuine"
        line = _output(argv, "table").splitlines()[2 + 5]
        assert line.split()[0] == "6" and line.endswith("  instilled-spurious")

    def test_csv_schema_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(FAST + ["--format", "csv", "--out", str(out1)]) == 0
        assert main(FAST + ["--format", "csv", "--out", str(out2)]) == 0
        text = out1.read_text()
        assert text == out2.read_text()  # byte-identical across runs
        header = text.splitlines()[0]
        assert header == "level,kappa,binding,reference,rel_error,label"

    def test_json_roundtrip_full_precision(self, tmp_path):
        out = tmp_path / "a.json"
        assert main(FAST + ["--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "solve"
        rows = doc["rows"]
        genuine = [r for r in rows if r["label"] == "genuine" and r["kappa"] == -1]
        assert len(genuine) == 2
        # json floats parse back exactly (repr round-trip)
        assert isinstance(genuine[0]["binding"], float)
        assert genuine[0]["binding"] == pytest.approx(-0.50000665659, abs=1e-6)

    def test_json_byte_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(FAST + ["--format", "json", "--out", str(out1)]) == 0
        # a different solve in between must not perturb the next one
        assert main(["--Z", "12", "--kappa", "-2", "--n", "100", "--a", "1e-6", "--b", "60",
                     "--mesh-gamma", "8.5", "--levels", "3", "--scheme", "hermite-supg",
                     "--format", "json", "--out", str(tmp_path / "other.json")]) == 0
        assert main(FAST + ["--format", "json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_coincidence_mode(self, capsys):
        code = main(["--Z", "1", "--abs-kappa", "1", "--scheme", "hermite-galerkin",
                     "--n", "40", "--a", "1e-6", "--b", "40", "--mesh-gamma", "8",
                     "--mode", "coincidence", "--match-tol", "1e-5"])
        assert code == 0
        assert "PRESENT" in capsys.readouterr().out

    def test_coincidence_notes_follow_the_negative_kappa_labels(self):
        # on this mesh the kappa=-1 window holds an instilled level at
        # -0.0317717, 1.7 % from the n_r=3 reference, which solve mode labels
        # instilled-spurious; its pair is no physical degeneracy
        mesh = ["--Z", "1", "--abs-kappa", "1", "--scheme", "linear-galerkin", "--n", "50",
                "--levels", "4"]
        pairs = _json_rows(mesh + ["--mode", "coincidence"])
        assert [r["note"] for r in pairs] == ["coincidence", "physical-degeneracy",
                                              "physical-degeneracy", "instilled-spurious",
                                              "physical-degeneracy"]
        negative = [r for r in _json_rows(mesh) if r["kappa"] == -1]
        for pair in pairs[1:]:
            (row,) = [r for r in negative
                      if math.isclose(r["binding"], pair["neg_binding"], rel_tol=1e-12)]
            assert (pair["note"] == "physical-degeneracy") == (row["label"] == "genuine")

    def test_convergence_mode(self, capsys):
        code = main(["--Z", "1", "--kappa", "-1", "--scheme", "hermite-galerkin",
                     "--n-list", "20,40", "--levels", "2", "--a", "1e-6", "--b", "40",
                     "--mesh-gamma", "8", "--mode", "convergence", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,level,kappa,rel_error,order"

    def test_compare_schemes_free_lower_slope_on_pathology_config(self, capsys):
        # the README pathology mesh: with the fixed lower slope the SUPG
        # kappa=-1 ground level misses the reference by 1.8e-4 relative
        argv = ["--mode", "compare-schemes", "--Z", "1", "--abs-kappa", "1", "--n", "100",
                "--a", "1e-6", "--b", "150", "--mesh-gamma", "8", "--levels", "3"]
        assert main(argv) == EXIT_SOLVER
        assert "fixed lower slope" in capsys.readouterr().err
        assert main(argv + ["--free-lower-slope", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for scheme in ("linear-galerkin", "hermite-galerkin", "hermite-supg"):
            genuine = [r for r in rows if r["scheme"] == scheme and r["kappa"] == -1
                       and r["label"] == "genuine"]
            assert [r["level"] for r in genuine] == [1, 2, 3], scheme

    def test_compare_schemes_small(self, capsys):
        code = main(["--Z", "1", "--abs-kappa", "1", "--n", "100", "--a", "1e-6",
                     "--b", "40", "--mesh-gamma", "8", "--levels", "2",
                     "--match-tol", "1e-4", "--mode", "compare-schemes"])
        assert code == 0
        out = capsys.readouterr().out
        for scheme in ("linear-galerkin", "hermite-galerkin", "hermite-supg"):
            assert scheme in out


# --- windowed CLI pipeline against the dense full-spectrum oracle -----------

SMALL = ["--Z", "1", "--a", "1e-6", "--b", "40", "--mesh-gamma", "8", "--levels", "3"]
# the stabilized scheme's n=100 levels sit ~1e-5 off the reference
SUPG_TOL = ["--match-tol", "1e-4"]
EQUIVALENCE_RUNS = [
    pytest.param(SMALL + ["--scheme", scheme, "--abs-kappa", "1", "--n", "100"] + extra,
                 id=f"solve-{scheme}")
    for scheme, extra in (("linear-galerkin", []), ("hermite-galerkin", []),
                          ("hermite-supg", SUPG_TOL))
] + [
    pytest.param(SMALL + ["--scheme", scheme, "--kappa", "-1", "--n-list", "40,80",
                          "--mode", "convergence"] + extra, id=f"convergence-{scheme}")
    for scheme, extra in (("linear-galerkin", []), ("hermite-galerkin", []),
                          ("hermite-supg", SUPG_TOL))
] + [
    pytest.param(SMALL + ["--scheme", scheme, "--abs-kappa", "1", "--n", "100",
                          "--mode", "coincidence"] + extra, id=f"coincidence-{scheme}")
    for scheme, extra in (("linear-galerkin", []), ("hermite-galerkin", []),
                          ("hermite-supg", SUPG_TOL))
] + [
    pytest.param(SMALL + ["--abs-kappa", "1", "--n", "100", "--mode", "compare-schemes"]
                 + SUPG_TOL, id="compare-schemes"),
    pytest.param(["--Z", "1", "--abs-kappa", "1", "--scheme", "linear-galerkin", "--n", "100",
                  "--a", "1e-6", "--b", "150", "--mesh-gamma", "8", "--levels", "6"],
                 id="solve-linear-pathology"),
]

#: Stabilized bindings against the two-sided quotients of the dense QZ
#: eigenvectors (measured: at most 7.2e-14 relative, with one BLAS thread or
#: two); on the Z=1 pathology mesh the QZ eigenvalues are up to 1.1e-9 off them
BINDING_RTOL = 1e-12
EXACT_KEYS = ("level", "kappa", "label", "n", "pair", "note", "scheme", "reference")
BINDING_KEYS = ("binding", "pos_binding", "neg_binding")
# relative differences of bindings: a binding rtol bounds them absolutely
RELATIVE_KEYS = ("rel_error", "rel_diff")


def _json_rows(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv + ["--format", "json"]) == 0
    return json.loads(out.getvalue())["rows"]


def _dense_solve(system, window):
    """The dense oracle in place of the windowed solve: it reads no window.

    Its bindings are extended-precision quotients of the dense eigenvectors:
    Rayleigh quotients for a Galerkin pencil, two-sided ones of QZ's right
    and left vectors for the stabilized one. The dense eigh values are up to
    2.9e-9 off them, the QZ values up to 1.1e-9. They come back as a
    Spectrum, which ``coincidence_report`` requires, with no eigenvectors:
    the CLI reads none.
    """
    lo = -2.0 * system.params.rest_energy
    if is_galerkin(system.scheme):  # eigh's eigenvalues are real
        bindings, max_imag = dense_rayleigh_bindings(system, lo, 0.0), 0.0
    else:  # one QZ gives the bindings and the reality check
        dense = dense_two_sided_bindings(system, lo, 0.0)
        bindings, max_imag = dense.bindings, dense.max_imag
    return Spectrum(scheme=system.scheme, bindings=bindings, max_imag=max_imag,
                    params=system.params, eigenvectors=np.empty((0, len(bindings))))


def _order_is_resolved(rows, level):
    """A fitted order is compared only where every error behind it is far above 1e-9."""
    errs = [r["rel_error"] for r in rows if r["level"] == level and r["n"] is not None]
    return all(e is not None and e > 1e-6 for e in errs)


@pytest.mark.parametrize("argv", EQUIVALENCE_RUNS)
def test_windowed_rows_match_dense(argv, monkeypatch):
    windowed = _json_rows(argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "solve", _dense_solve)
        m.setattr(analysis, "solve", _dense_solve)
        dense = _json_rows(argv)
    assert len(windowed) == len(dense)
    for got, want in zip(windowed, dense):
        assert got.keys() == want.keys()
        for key in EXACT_KEYS:
            assert got.get(key) == want.get(key), key
        scheme = want.get("scheme", argv[argv.index("--scheme") + 1] if "--scheme" in argv
                          else None)
        rtol = GALERKIN_ORACLE_RTOL if scheme and is_galerkin(scheme) else BINDING_RTOL
        for key in BINDING_KEYS:
            if key in want:
                assert got[key] == pytest.approx(want[key], rel=rtol, abs=0.0)
        for key in RELATIVE_KEYS:
            if want.get(key) is None:
                assert got.get(key) is None
            elif key in want:
                assert got[key] == pytest.approx(want[key], rel=0.0, abs=rtol)
        if "order" in want:
            assert (got["order"] is None) == (want["order"] is None)
            if want["order"] is not None and _order_is_resolved(dense, want["level"]):
                assert math.isclose(got["order"], want["order"], rel_tol=1e-3)


# --- table, csv and json render the same rows -------------------------------

AGREEMENT_RUNS = [
    pytest.param(FAST, id="solve-pair"),
    pytest.param(["--Z", "12", "--kappa", "2", "--scheme", "hermite-supg", "--n", "100",
                  "--a", "1e-6", "--b", "60", "--mesh-gamma", "8.5", "--levels", "3"],
                 id="solve-single-kappa"),
    pytest.param(SMALL + ["--abs-kappa", "1", "--n", "100", "--mode", "compare-schemes"]
                 + SUPG_TOL, id="compare-schemes"),
    # levels 2-4 are unmatched at n=10, level 4 at every n
    pytest.param(["--Z", "1", "--kappa", "-1", "--scheme", "linear-galerkin", "--a", "1e-6",
                  "--b", "40", "--mesh-gamma", "8", "--mode", "convergence",
                  "--n-list", "10,20,40", "--levels", "4"], id="convergence-unmatched"),
    pytest.param(SMALL + ["--scheme", "linear-galerkin", "--abs-kappa", "1", "--n", "100",
                          "--mode", "coincidence"], id="coincidence"),
]


@pytest.mark.parametrize("argv", AGREEMENT_RUNS)
def test_json_run_renders_no_table(argv, monkeypatch):
    # every mode renders its table only under --format table
    def refuse(x):
        raise AssertionError("a json run formatted a table cell")

    monkeypatch.setattr(cli, "_fmt", refuse)
    assert json.loads(_output(argv, "json"))["rows"]


def _output(argv, fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv + ["--format", fmt]) == 0
    return out.getvalue()


def _fixed_cells(line, count):
    """The 18-wide cells of a solve-table line, then the label after them."""
    return [line[20 * j:20 * j + 18].strip() for j in range(count)], line[20 * count:].strip()


def _check_solve_table(text, rows):
    lines = text.splitlines()
    heads = lines[1].split()
    kappas = [int(h.removeprefix("kappa=")) for h in heads[1:-2]]
    columns = {k: [r for r in rows if r["kappa"] == k] for k in kappas}
    assert sum(map(len, columns.values())) == len(rows)
    anchor_rows = columns[kappas[-1]]
    assert len(lines) == 2 + len(anchor_rows)
    for i, (line, anchor) in enumerate(zip(lines[2:], anchor_rows)):
        cells, label = _fixed_cells(line, 2 + len(kappas))
        line_rows = [col[i] for col in columns.values() if i < len(col)]
        assert cells[0] == ("=>" if anchor["level"] is None else str(anchor["level"]))
        assert cells[1:-1] == [cli._fmt(col[i]["binding"]) if i < len(col) else ""
                               for col in columns.values()]
        assert cells[-1] == cli._fmt(anchor["reference"])
        # the worst row of the line labels it
        labels = {r["label"] for r in line_rows}
        assert label == next(worst for worst in ("coincidence-spurious", "instilled-spurious",
                                                 "genuine") if worst in labels)


def _check_table(mode, text, rows):
    if mode == "solve":
        _check_solve_table(text, rows)
    elif mode == "compare-schemes":
        blocks = text.split("\n\n")
        assert [b.splitlines()[0] for b in blocks] == [f"--- {s} ---" for s in cli.SCHEMES]
        for scheme, block in zip(cli.SCHEMES, blocks):
            _check_solve_table(block, [r for r in rows if r["scheme"] == scheme])
    elif mode == "convergence":
        lines = text.splitlines()[2:]
        n_values = sorted({r["n"] for r in rows if r["n"] is not None})
        assert [line.split()[0] for line in lines] == [str(n) for n in n_values] + ["order"]
        for line, n in zip(lines, n_values + [None]):
            key = "order" if n is None else "rel_error"
            assert line.split()[1:] == ["-" if r[key] is None else cli._fmt(r[key])
                                        for r in rows if r["n"] == n]
    else:
        lines = text.splitlines()[1:]
        assert len(lines) == len(rows)
        for line, r in zip(lines, rows):
            pair, rest = line.split(":", 1)
            assert pair.split() == ["pair", str(r["pair"])]
            assert rest.split() == [cli._fmt(r["pos_binding"]), "vs", cli._fmt(r["neg_binding"]),
                                    f"rel={cli._fmt(r['rel_diff'])}", r["note"]]


@pytest.mark.parametrize("argv", AGREEMENT_RUNS)
def test_table_csv_and_json_render_the_same_rows(argv):
    doc = json.loads(_output(argv, "json"))
    rows = doc["rows"]
    assert rows
    csv_lines = _output(argv, "csv").splitlines()
    columns = csv_lines[0].split(",")
    assert set(columns) == set(rows[0])
    assert [line.split(",") for line in csv_lines[1:]] == \
        [[cli._fmt(r[c]) for c in columns] for r in rows]
    _check_table(doc["mode"], _output(argv, "table"), rows)
    if doc["mode"] == "convergence":  # an unmatched level is null in json, '-' in the table
        assert any(r["rel_error"] is None and r["n"] is not None for r in rows)


#: Run in a fresh interpreter: the README pathology command with the Hermite
#: Galerkin scheme, then a small Z=12 stabilized solve; prints each exit code
#: and whether scipy.sparse was loaded after it.
_IMPORT_PROBE = f"""
import contextlib, io, json, sys
from diracfem.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    galerkin = main({PATHOLOGY + ["--scheme", "hermite-galerkin"]!r})
    galerkin_sparse = "scipy.sparse" in sys.modules
    supg = main({["--Z", "12", "--abs-kappa", "2", "--scheme", "hermite-supg", "--n", "100",
                  "--a", "1e-6", "--b", "60", "--mesh-gamma", "8.5", "--levels", "6"]!r})
print(json.dumps([galerkin, galerkin_sparse, supg, "scipy.sparse.linalg" in sys.modules]))
"""


def test_only_a_stabilized_run_loads_arpack():
    # the Galerkin pencils are solved with scipy.linalg's band LAPACK alone;
    # ARPACK (scipy.sparse.linalg) is imported by the stabilized solve
    tested = Path(cli.__file__).resolve().parents[1]  # the tested package's tree
    env = dict(os.environ, PYTHONPATH=str(tested))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, False, 0, True]
