"""End-to-end command-line checks: exit codes, report schemas, and
byte-identical reruns."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from pettybox import BoxUnion, PolygonSet, SurfaceMeasure, __version__
from pettybox.cli import main
from pettybox.corpus import regular_polygon
from pettybox.geometry import rotation_2d
from pettybox.sets import set_to_json


@pytest.fixture
def sets_dir(tmp_path):
    square = PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]])
    cube = BoxUnion([[0, 0, 0]], [[1, 1, 1]])
    staircase = BoxUnion([[0, 0], [1, 1]], [[1, 2], [2, 3]])
    disk = regular_polygon(64)
    tri = PolygonSet([[0, 0], [2, 0], [0, 2]]).transform(rotation_2d(0.3))
    for name, E in [("square", square), ("cube", cube),
                    ("staircase", staircase), ("disk64", disk),
                    ("tri_rot", tri)]:
        (tmp_path / f"{name}.json").write_text(json.dumps(set_to_json(E)))
    (tmp_path / "bad.json").write_text("{broken")
    (tmp_path / "latin1.json").write_bytes(
        '{"polygon": [[0, 0], [1, 0], [0, 1]], "name": "caf\xe9"}'.encode("latin-1"))
    (tmp_path / "both.json").write_text(
        json.dumps({**set_to_json(square), **set_to_json(staircase)}))
    (tmp_path / "overflow.json").write_text(json.dumps(
        {"polygon": [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]]}))
    # finite edges, shoelace terms and area (1.6e307), but the centroid's
    # moment terms overflow
    (tmp_path / "huge.json").write_text(json.dumps(
        {"polygon": [[0, 0], [4e153, 0], [4e153, 4e153], [0, 4e153]]}))
    # an integer too large for a float, in either shape
    (tmp_path / "bigint_polygon.json").write_text(json.dumps(
        {"polygon": [[0, 0], [10**400, 0], [0, 1]]}))
    (tmp_path / "bigint_boxes.json").write_text(json.dumps(
        {"boxes": [{"lo": [0, 0], "hi": [10**400, 1]}]}))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- petty

def test_petty_square(sets_dir, capsys):
    code, out, _ = run(capsys, "petty", "--input", str(sets_dir / "square.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == __version__
    assert doc["config"]["command"] == "petty"
    assert doc["config"]["input"].endswith("square.json")
    assert abs(doc["product"] - 2.0) <= 1e-12
    assert abs(doc["bound"] - (math.pi / 2.0) ** 2) <= 1e-15
    assert doc["slack"] > 0.0


def test_petty_cube(sets_dir, capsys):
    code, out, _ = run(capsys, "petty", "--input", str(sets_dir / "cube.json"))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["product"] - 4.0 / 3.0) <= 1e-9
    assert abs(doc["bound"] - (4.0 / 3.0) ** 3) <= 1e-15


def test_petty_thin_box_union(tmp_path, capsys):
    # a box union thinner than a zonotope ring resolves has its product
    # from the cross-polytope closed form, as the same polygon does
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"boxes": [{"lo": [0, 0], "hi": [1, 1e-15]}]}))
    code, out, err = run(capsys, "petty", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["product"] == 2.0


def test_petty_writes_out_file(sets_dir, capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "petty", "--input",
                       str(sets_dir / "square.json"), "--out", str(dest))
    assert code == 0
    assert dest.read_text() == out


def test_petty_missing_input(capsys):
    code, _, err = run(capsys, "petty")
    assert code == 2
    assert "requires --input" in err


def test_malformed_json_reports_position(sets_dir, capsys):
    code, _, err = run(capsys, "petty", "--input", str(sets_dir / "bad.json"))
    assert code == 2
    assert ":1:" in err


# a set file a command cannot take is invalid input: exit 2 and one error
# line, never a traceback
UNUSABLE = [
    pytest.param("affine", "staircase", ("--seed", "1", "--trials", "1"), "polygons",
                 id="affine-on-boxes"),
    pytest.param("coarea-check", "staircase", (), "polygons", id="coarea-on-boxes"),
    pytest.param("petty", "latin1", (), "UTF-8", id="not-utf8"),
    pytest.param("petty", "both", (), "exactly one", id="polygon-and-boxes"),
    pytest.param("petty", "overflow", (), "polygon is too large", id="overflowing-edges"),
    pytest.param("converge", "huge", (), "polygon is too large: its centroid overflows",
                 id="converge-overflowing-centroid"),
    pytest.param("coarea-check", "huge", (), "polygon is too large: its centroid overflows",
                 id="coarea-overflowing-centroid"),
    pytest.param("petty", "bigint_polygon", (), "field 'polygon' is not numeric",
                 id="polygon-int-beyond-float"),
    pytest.param("petty", "bigint_boxes", (), "box 0 corners are not numeric",
                 id="boxes-int-beyond-float"),
]


@pytest.mark.parametrize("command,name,options,message", UNUSABLE)
def test_unusable_set_file_exits_2(sets_dir, capsys, command, name, options, message):
    code, out, err = run(capsys, command, "--input", str(sets_dir / f"{name}.json"), *options)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


# a tolerance that is nan, infinite or negative, a campaign of no sets or
# trials, a negative seed, or a monotonicity option that the chosen mode
# never reads, is invalid input: exit 2 before any work, never a vacuous
# verdict, a traceback or a config that records an unused option
INVALID_OPTIONS = [
    pytest.param(("petty", "--input", "{square}", "--tol", "nan"), "--tol", id="tol-nan"),
    pytest.param(("petty", "--input", "{square}", "--tol", "inf"), "--tol", id="tol-inf"),
    pytest.param(("coarea-check", "--input", "{tri_rot}", "--tol", "-0.001"), "--tol",
                 id="tol-negative"),
    pytest.param(("converge", "--input", "{square}", "--stop-tol", "nan", "--max-steps", "3"),
                 "stop tolerance", id="stop-tol-nan"),
    pytest.param(("converge", "--input", "{square}", "--stop-tol", "inf"), "stop tolerance",
                 id="stop-tol-inf"),
    pytest.param(("affine", "--input", "{tri_rot}", "--seed", "1", "--trials", "-4"),
                 "at least 1", id="trials-negative"),
    pytest.param(("affine", "--input", "{tri_rot}", "--seed", "1", "--trials", "0"),
                 "at least 1", id="trials-zero"),
    pytest.param(("monotonicity", "--count", "-2", "--seed", "5"), "at least 1",
                 id="count-negative"),
    pytest.param(("monotonicity", "--count", "2", "--seed", "-1"), "--seed",
                 id="seed-negative-monotonicity"),
    pytest.param(("affine", "--input", "{tri_rot}", "--trials", "2", "--seed", "-1"), "--seed",
                 id="seed-negative-affine"),
    pytest.param(("converge", "--input", "{square}", "--seed", "-1"), "--seed",
                 id="seed-negative-converge"),
    pytest.param(("monotonicity", "--count", "2", "--seed", "1", "--direction", "1,0"),
                 "--direction and --exploratory apply to --input", id="count-with-direction"),
    pytest.param(("monotonicity", "--count", "2", "--seed", "1", "--exploratory"),
                 "--direction and --exploratory apply to --input", id="count-with-exploratory"),
    pytest.param(("monotonicity", "--input", "{square}", "--direction", "0.6,0.8", "--seed", "4"),
                 "--seed applies to --count", id="input-with-seed"),
]


@pytest.mark.parametrize("argv,message", INVALID_OPTIONS)
def test_invalid_option_exits_2(sets_dir, capsys, argv, message):
    argv = [a.format(square=sets_dir / "square.json", tri_rot=sets_dir / "tri_rot.json")
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


# ------------------------------------------------------------------ converge

def test_converge_square(sets_dir, capsys):
    code, out, _ = run(capsys, "converge", "--input",
                       str(sets_dir / "square.json"), "--seed", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith(f"# version: {__version__}")
    assert lines[1].startswith("# config: ")
    assert lines[2].startswith("step,u_1,u_2,")


def test_converge_budget_exhausted_still_emits_trace(sets_dir, capsys):
    code, out, _ = run(capsys, "converge", "--input",
                       str(sets_dir / "square.json"), "--max-steps", "0")
    assert code == 1
    assert "step,u_1,u_2," in out
    # one data row: the unconverged starting state
    rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert len(rows) == 2


def test_converge_rerun_is_byte_identical(sets_dir, capsys):
    argv = ("converge", "--input", str(sets_dir / "square.json"),
            "--seed", "3")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# -------------------------------------------------------------- monotonicity

def test_monotonicity_blocked_without_exploratory(sets_dir, capsys):
    code, _, err = run(capsys, "monotonicity", "--input",
                       str(sets_dir / "staircase.json"), "--direction", "0,1")
    assert code == 2
    assert "--exploratory" in err


def test_monotonicity_exploratory_staircase(sets_dir, capsys):
    code, out, _ = run(capsys, "monotonicity", "--input",
                       str(sets_dir / "staircase.json"), "--direction", "0,1",
                       "--exploratory")
    assert code == 0
    row = [l for l in out.strip().split("\n") if not l.startswith("#")][1]
    cells = row.split(",")
    # product climbs from 4/3 to the sharp value 2 for this step shape
    assert abs(float(cells[3]) - 4.0 / 3.0) <= 1e-12
    assert abs(float(cells[4]) - 2.0) <= 1e-12
    assert abs(float(cells[5]) - 2.0 / 3.0) <= 1e-12
    assert cells[7] == "1"


def test_monotonicity_campaign(capsys):
    code, out, _ = run(capsys, "monotonicity", "--count", "4", "--seed", "5")
    assert code == 0
    rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert rows[0].split(",")[:3] == ["set_id", "u_1", "u_2"]
    assert len(rows) == 5
    for row in rows[1:]:
        assert float(row.split(",")[5]) >= -1e-9


def test_monotonicity_campaign_resampling_exhaustion(monkeypatch, capsys):
    # with every draw rejected, a set gets 10,000 redraws and then exit 3
    draws = []

    def never_regular(self, directions):
        draws.append(directions)
        return np.ones((len(self.normals), len(directions)), dtype=bool)

    monkeypatch.setattr(SurfaceMeasure, "orthogonal_atoms", never_regular)
    code, _, err = run(capsys, "monotonicity", "--count", "2", "--seed", "5")
    assert code == 3
    assert len(draws) == 10_001
    assert "budget of 10000" in err


def test_monotonicity_campaign_needs_seed(capsys):
    code, _, err = run(capsys, "monotonicity", "--count", "4")
    assert code == 2
    assert "--seed" in err


def test_monotonicity_rejects_both_modes(sets_dir, capsys):
    code, _, err = run(capsys, "monotonicity", "--input",
                       str(sets_dir / "square.json"), "--direction", "0,1",
                       "--count", "2", "--seed", "1")
    assert code == 2
    assert "exactly one" in err


# -------------------------------------------------------------------- affine

def test_affine_campaign(sets_dir, capsys):
    code, out, _ = run(capsys, "affine", "--input",
                       str(sets_dir / "tri_rot.json"), "--trials", "5",
                       "--seed", "7")
    assert code == 0
    rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert rows[0].split(",")[0] == "trial"
    assert len(rows) == 6
    for row in rows[1:]:
        assert float(row.split(",")[5]) <= 1e-9
        assert float(row.split(",")[6]) <= 1e-9


@pytest.mark.parametrize("command", ["petty", "monotonicity", "converge", "affine",
                                     "coarea-check", "polar-symmetral-check"])
def test_no_command_takes_a_grid(sets_dir, capsys, command):
    # every report is exact or an exact bound, so no grid size could
    # change it
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(sets_dir / "tri_rot.json"), "--grid-n", "64"])
    assert exc.value.code == 2
    assert "--grid-n" in capsys.readouterr().err


def test_affine_needs_seed(sets_dir, capsys):
    code, _, err = run(capsys, "affine", "--input",
                       str(sets_dir / "tri_rot.json"), "--trials", "2")
    assert code == 2
    assert "--seed" in err


# -------------------------------------------------------------- coarea-check

def test_coarea_check(sets_dir, capsys):
    code, out, _ = run(capsys, "coarea-check", "--input",
                       str(sets_dir / "tri_rot.json"))
    assert code == 0
    rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
    names = [r.split(",")[0] for r in rows[1:]]
    assert names == ["one", "x_squared", "halfplane"]
    for row in rows[1:]:
        assert float(row.split(",")[3]) <= 1e-9 * (1.0 + abs(float(row.split(",")[1])))


# ---------------------------------------------------- polar-symmetral-check

def test_polar_symmetral_check_holds(sets_dir, capsys):
    code, out, _ = run(capsys, "polar-symmetral-check", "--input",
                       str(sets_dir / "tri_rot.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["margin"] <= 1.0 + 1e-9
    assert doc["direction"] == [0.0, 1.0]


@pytest.mark.parametrize("direction", ["0,0", "nan,1", "inf,1", "1", "a,b"])
@pytest.mark.parametrize("command", ["polar-symmetral-check", "monotonicity"])
def test_invalid_direction_is_an_input_error(sets_dir, capsys, command, direction):
    # zero and non-finite vectors are refused by the one normaliser
    code, out, err = run(capsys, command, "--input", str(sets_dir / "tri_rot.json"),
                         f"--direction={direction}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_polar_symmetral_check_rejects_axis_mass(sets_dir, capsys):
    # the square carries boundary mass orthogonal to the vertical axis,
    # which the check's hypothesis rules out
    code, _, err = run(capsys, "polar-symmetral-check", "--input",
                       str(sets_dir / "square.json"))
    assert code == 2
    assert "mass" in err


def test_disk_product_near_bound(sets_dir, capsys):
    code, out, _ = run(capsys, "petty", "--input",
                       str(sets_dir / "disk64.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["slack"] > 0.0
    assert doc["product"] > 0.99 * doc["bound"]


# -------------------------------------------------------------------- config

# each subcommand's embedded config is its parsed options: every one that
# is set, defaults included, and no unset or off flag
CONFIGS = [
    pytest.param(["petty", "--input", "{square}"],
                 {"command": "petty", "input": "{square}", "tol": 1e-9},
                 id="petty"),
    pytest.param(["monotonicity", "--count", "2", "--seed", "5", "--tol", "1e-3"],
                 {"command": "monotonicity", "count": 2, "seed": 5, "tol": 1e-3},
                 id="monotonicity"),
    pytest.param(["converge", "--input", "{square}", "--tol", "1e-6", "--max-steps", "3"],
                 {"command": "converge", "input": "{square}", "tol": 1e-6,
                  "policy": "cap-cover-greedy", "seed": 0, "candidates": 32,
                  "max_steps": 3, "stop_tol": 0.05},
                 id="converge"),
    pytest.param(["affine", "--input", "{tri_rot}", "--seed", "7", "--trials", "2",
                  "--out", "{out}"],
                 {"command": "affine", "input": "{tri_rot}", "out": "{out}", "tol": 1e-9,
                  "seed": 7, "trials": 2},
                 id="affine"),
    pytest.param(["coarea-check", "--input", "{tri_rot}"],
                 {"command": "coarea-check", "input": "{tri_rot}", "tol": 1e-9},
                 id="coarea-check"),
    pytest.param(["polar-symmetral-check", "--input", "{tri_rot}", "--direction", "0.6,0.8"],
                 {"command": "polar-symmetral-check", "input": "{tri_rot}", "tol": 1e-9,
                  "direction": "0.6,0.8"},
                 id="polar-symmetral-check"),
]


@pytest.mark.parametrize("argv,expected", CONFIGS)
def test_config_is_the_parsed_options(sets_dir, capsys, argv, expected):
    paths = {"square": sets_dir / "square.json", "tri_rot": sets_dir / "tri_rot.json",
             "out": sets_dir / "report.out"}
    argv = [a.format(**paths) for a in argv]
    expected = {k: v.format(**paths) if isinstance(v, str) else v
                for k, v in expected.items()}
    _, out, _ = run(capsys, *argv)
    if out.startswith("{"):
        config = json.loads(out)["config"]
    else:
        config = json.loads(out.split("\n")[1].removeprefix("# config: "))
    assert config == expected
