import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from polyperim import cli, cones, errors, shapes, smoothing, solver
from polyperim.cli import BUILTIN_SHAPES, build_parser, main
from polyperim.mesh import subdivide

from conftest import OFF_EDGE_CUBE
from test_acceptance import CLI_CASES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_artifact(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest {")
    assert lines[1].startswith("# manifest-digest sha256:")
    manifest = json.loads(lines[0][len("# manifest ") :])
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    return manifest, header, rows


def test_analyze_cube(tmp_path, capsys):
    code, out, _ = run(
        capsys, "analyze", "--polytope", "cube", "--out", str(tmp_path)
    )
    assert code == 0
    manifest, header, rows = read_artifact(tmp_path / "analysis.csv")
    assert manifest["command"] == "analyze"
    assert "out" not in manifest["flags"] and "func" not in manifest["flags"]
    assert header[:3] == ["vertex_index", "omega", "r_max"]
    assert len(rows) == 8
    assert float(rows[0][1]) == pytest.approx(1.5 * math.pi, abs=1e-10)
    assert rows[0][6] == "true"  # ties resolve to the lowest index
    assert all(r[6] == "false" for r in rows[1:])
    assert "alternate convention (n-2)/(n-1)" in out
    assert "link deficit sum" in out


@pytest.mark.parametrize(
    "shape, c, t",
    [
        # n = 1: the boundary near a corner is two points at every volume
        ("square", 2.0, 0.0),
        # n = 2: A = sqrt(2 * omega * V) with omega = 3 pi / 2
        ("cube", math.sqrt(3.0 * math.pi), 0.5),
        # n = 3: A = omega^(1/3) (3 V)^(2/3) with omega = 2 pi
        ("hypercube", (2.0 * math.pi) ** (1.0 / 3.0) * 3.0 ** (2.0 / 3.0), 2.0 / 3.0),
    ],
    ids=["square", "cube", "hypercube"],
)
def test_analyze_writes_the_apex_ball_profile(tmp_path, capsys, shape, c, t):
    code, _, _ = run(capsys, "analyze", "--polytope", shape, "--out", str(tmp_path))
    assert code == 0
    _, header, rows = read_artifact(tmp_path / "analysis.csv")
    assert header[3:5] == ["c", "t"]
    for row in rows:
        assert float(row[3]) == pytest.approx(c, abs=1e-10)
        assert float(row[4]) == pytest.approx(t, abs=1e-12)


def test_analyze_accepts_json_document(tmp_path, capsys):
    doc = tmp_path / "poly.json"
    doc.write_text(json.dumps(shapes.octahedron().serialize()))
    code, _, _ = run(
        capsys,
        "analyze",
        "--polytope",
        str(doc),
        "--out",
        str(tmp_path / "from-file"),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "analyze", "--polytope", "octahedron", "--out", str(tmp_path / "builtin")
    )
    assert code == 0
    _, _, rows_a = read_artifact(tmp_path / "from-file" / "analysis.csv")
    _, _, rows_b = read_artifact(tmp_path / "builtin" / "analysis.csv")
    assert rows_a == rows_b


def test_slice_with_svg(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "slice",
        "--n", "2",
        "--N", "3",
        "--svg",
        "--out", str(tmp_path),
    )
    assert code == 0
    _, header, rows = read_artifact(tmp_path / "pieces.csv")
    assert header == ["k", "shape_class", "volume", "class_representative"]
    assert len(rows) == 9
    assert "classes: 2" in out
    assert "classes <= 2: PASS" in out
    svg = (tmp_path / "pieces.svg").read_text()
    assert svg.startswith("<?xml") and "</svg>" in svg


def test_smooth_square(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "smooth",
        "--polytope", "square",
        "--eps", "0.2",
        "--dirs", "64",
        "--out", str(tmp_path),
    )
    assert code == 0
    _, header, rows = read_artifact(tmp_path / "boundary.csv")
    assert header == ["u1", "u2", "rho_plain", "rho_smooth"]
    assert len(rows) == 64
    for row in rows:
        assert float(row[3]) <= float(row[2]) + 1e-9
    assert "volume deficit:" in out
    assert "newton steps per direction: max " in out
    assert "kernel mass error: " in out
    deficit = float(out.split("volume deficit:")[1].split()[0])
    assert deficit > 0.0


@pytest.mark.parametrize("shape", ["square-pyramid", "triangular-prism", "triangle"])
def test_smooth_takes_the_gauge_about_the_vertex_mean(shape, tmp_path, capsys):
    # the coordinate origin is not inside these shapes
    code, _, _ = run(
        capsys, "smooth", "--polytope", shape, "--eps", "0.05", "--dirs", "64",
        "--out", str(tmp_path),
    )
    assert code == 0
    _, _, rows = read_artifact(tmp_path / "boundary.csv")
    assert rows and all(float(row[-1]) <= float(row[-2]) for row in rows)


def test_profile_table_and_svg(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "profile",
        "--model", "euclidean",
        "--n", "2",
        "--vmin", "0.01",
        "--vmax", "1.0",
        "--points", "32",
        "--svg",
        "--out", str(tmp_path),
    )
    assert code == 0
    _, header, rows = read_artifact(tmp_path / "profile.csv")
    assert header == ["V", "A"]
    assert len(rows) == 32
    for v, a in ((float(r[0]), float(r[1])) for r in rows):
        assert a == pytest.approx(2 * math.sqrt(math.pi * v), rel=1e-10)
    assert (tmp_path / "profile.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "euclidean", "--n", "2", "--points", "1"],
        ["--model", "euclidean", "--n", "1"],
    ],
    ids=["one-volume", "constant-area"],
)
def test_profile_svg_pads_a_range_of_one_value(tmp_path, capsys, argv):
    # one volume gives each axis a single value, and the 1-d profile A = 2
    # gives the area axis one
    code, _, _ = run(capsys, "profile", *argv, "--vmin", "0.01", "--vmax", "1.0",
                     "--svg", "--out", str(tmp_path))
    assert code == 0
    svg = (tmp_path / "profile.svg").read_text()
    assert svg.rstrip().endswith("</svg>") and "<polyline" in svg
    assert not re.search(r"nan|inf", svg)


def test_profile_cone_requires_omega(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "profile",
        "--model", "cone",
        "--n", "2",
        "--vmin", "0.01",
        "--vmax", "1.0",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "omega" in err


def test_solve_quick(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "--polytope", "cube",
        "--volume", "0.375",
        "--level", "2",
        "--iters", "3000",
        "--restarts", "2",
        "--seed", "3",
        "--out", str(tmp_path),
    )
    assert code == 0
    _, header, rows = read_artifact(tmp_path / "summary.csv")
    assert header == [
        "target_volume", "area", "perimeter", "bound", "kappa",
        "ceiling", "best_restart",
    ]
    (row,) = rows
    area, perimeter = float(row[1]), float(row[2])
    bound, ceiling = float(row[3]), float(row[5])
    assert abs(area - 0.375) <= 0.02 * 0.375
    assert bound - 1e-9 <= perimeter <= ceiling
    assert "bound check: PASS" in out
    assert out.count("snapshots ") == 2  # one move-count entry per restart
    _, _, region_rows = read_artifact(tmp_path / "region.csv")
    assert len(region_rows) >= 1


def test_solve_writes_one_row_per_restart(tmp_path, capsys):
    """``restarts.csv`` holds each restart's start, perimeter and move
    counts, as ``minimize_perimeter`` reports them, and reruns write it
    byte for byte.  On the level-3 prism the six vertex balls take the
    first restarts and both cold ones end with no feasible finalist."""
    argv = [
        "solve", "--polytope", "triangular-prism", "--volume", "0.02",
        "--level", "3", "--iters", "100", "--restarts", "8",
    ]
    for name in ("a", "b"):
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / name))
        assert code == 0
    assert (tmp_path / "a" / "restarts.csv").read_bytes() == (
        tmp_path / "b" / "restarts.csv"
    ).read_bytes()
    _, header, rows = read_artifact(tmp_path / "a" / "restarts.csv")
    assert header == [
        "restart", "start", "perimeter", "flips_proposed", "flips_accepted",
        "swaps_proposed", "swaps_accepted", "snapshots", "polish_flips",
    ]
    poly = shapes.triangular_prism()
    mesh = subdivide(poly, 3)
    ranked = cones.rank_by_link(cones.vertex_cones(poly))
    warm = [solver.vertex_ball_region(mesh, c.vertex_index, 0.02) for c in ranked]
    config = solver.default_config(mesh, iterations=100, restarts=8)
    result = solver.minimize_perimeter(mesh, 0.02, config, warm_starts=warm)
    starts = [f"warm:{c.vertex_index}" for c in ranked] + ["cold", "cold"]
    assert rows == [
        [str(r), start, "" if math.isinf(p) else cli._g(p)] + [str(n) for n in astuple(m)]
        for r, (start, p, m) in enumerate(zip(starts, result.restart_perimeters, result.moves))
    ]
    assert [row[2] for row in rows[6:]] == ["", ""] and all(row[2] for row in rows[:6])


def test_gallery_double_pyramid(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "gallery", "double-pyramid",
        "--theta", "0.5",
        "--volume", "0.001",
        "--base-link", "0.7",
        "--out", str(tmp_path),
    )
    assert code == 0
    _, _, rows = read_artifact(tmp_path / "double_pyramid.csv")
    # CSV floats carry 12 significant digits
    assert float(rows[0][4]) == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert rows[0][5] == "false"
    assert "metric ball minimizing: false" in out
    assert "one-sided ball beats base-vertex ball: true" in out


def test_gallery_spiked_cone(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "gallery", "spiked-cone",
        "--half-angle", "5.0",
        "--out", str(tmp_path),
    )
    assert code == 0
    _, header, rows = read_artifact(tmp_path / "spiked_cone.csv")
    assert header[0] == "theta_p"
    assert rows[0][4] == "true"
    assert float(rows[0][1]) < float(rows[0][2])
    assert "q beats cone point: true" in out


def test_gallery_cube_competitors(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "gallery", "cube-competitors",
        "--points", "40",
        "--svg",
        "--out", str(tmp_path),
    )
    assert code == 0
    _, header, rows = read_artifact(tmp_path / "competitors.csv")
    assert header[0] == "volume" and header[-1] == "winner"
    assert len(rows) == 40
    assert out.count("winner changes") == 2
    assert (tmp_path / "competitors.svg").exists()


def test_unknown_command_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "frobnicate", "--out", str(tmp_path))
    assert code == 64
    assert "unknown command" in err


def test_validation_exit_code(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "solve",
        "--polytope", "cube",
        "--volume", "10.0",
        "--level", "1",
        "--iters", "10",
        "--restarts", "1",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "analyze", "--out", str(tmp_path))
    assert code == 2


def test_analyze_reports_a_link_outside_the_sphere_measure_as_numerical(
    tmp_path, capsys, monkeypatch
):
    # a corner table whose links leave (0, |S^1|) at vertex 3: a failed
    # computation, not rejected input
    poly = shapes.cube()
    link, dist = cones._facet_corners(poly)
    link[np.concatenate(poly.facets) == 3] = 3.0
    monkeypatch.setattr(cones, "_facet_corners", lambda _: (link, dist))
    code, _, err = run(capsys, "analyze", "--polytope", "cube", "--out", str(tmp_path))
    assert code == 3
    assert "NumericalError" in err and "vertex 3: link measure 9.0" in err


def test_analyze_rejects_facet_list_that_does_not_close_up(tmp_path, capsys):
    doc = shapes.octahedron().serialize()
    del doc["facets"][0]
    path = tmp_path / "open.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "analyze", "--polytope", str(path), "--out", str(tmp_path / "out")
    )
    assert code == 2
    assert "InvalidPolytope" in err and "close up" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["analyze"], ["solve", "--volume", "0.05", "--level", "1"],
                                  ["smooth", "--eps", "0.1"]])
def test_rings_that_do_not_close_the_surface_are_rejected_input(tmp_path, capsys, argv):
    # the hull's facet rings put edge (0, 8) on three facets: the document
    # is rejected when the polytope is built, whichever command reads it,
    # not failed on a link later
    path = tmp_path / "off-edge.json"
    path.write_text(json.dumps({"dim": 3, "vertices": OFF_EDGE_CUBE}))
    code, _, err = run(capsys, *argv, "--polytope", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "InvalidPolytope: ring edge (0, 8) lies on 3 facets" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale, code", [(2e50, 0), (2e160, 2)])
def test_analyze_bounds_the_coordinates(tmp_path, capsys, scale, code):
    # the unit cube's corners at +-scale/2: up to 1e50 it is measured, past
    # that the document is rejected before scipy's KD-tree or Qhull overflows
    doc = shapes.cube().serialize()
    doc["vertices"] = (np.array(doc["vertices"]) * scale).tolist()
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    result, out, err = run(capsys, "analyze", "--polytope", str(path),
                           "--out", str(tmp_path / "out"))
    assert result == code
    if code == 0:
        _, _, rows = read_artifact(tmp_path / "out" / "analysis.csv")
        assert [float(row[2]) for row in rows] == [scale] * 8
    else:
        assert err == "polyperim: error: BadDocument: vertex coordinates must be at most 1e+50 in magnitude\n"
        assert out == "" and not (tmp_path / "out").exists()


def _rounded_hypercube_document(tmp_path, seed):
    """A unit hypercube rotated by the seed and rounded to 9 decimals."""
    corners = np.array(list(itertools.product([-0.5, 0.5], repeat=4)))
    rotation = special_ortho_group.rvs(4, random_state=seed)
    path = tmp_path / "rounded.json"
    path.write_text(json.dumps({"dim": 4, "vertices": np.round(corners @ rotation.T, 9).tolist()}))
    return str(path)


def test_analyze_rejects_overlapping_facets(tmp_path, capsys):
    # overlapping near-planar subsets of a bent cell would each count as a facet
    path = _rounded_hypercube_document(tmp_path, 1)
    code, _, err = run(capsys, "analyze", "--polytope", path, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "InvalidPolytope" in err and "facets overlap" in err
    assert not (tmp_path / "out").exists()


def test_analyze_rounded_hypercube_star_radii(tmp_path, capsys):
    # its eight bent cubical cells load, and each bent square face is one
    # 2-face, so every star reaches the far faces of its cells at distance 1
    # (to nine digits: the rounding moves vertices by up to 5e-10)
    path = _rounded_hypercube_document(tmp_path, 6)
    code, _, _ = run(capsys, "analyze", "--polytope", path, "--out", str(tmp_path))
    assert code == 0
    _, header, rows = read_artifact(tmp_path / "analysis.csv")
    assert header[2] == "r_max" and len(rows) == 16
    assert ["%.8f" % float(row[2]) for row in rows] == ["1.00000000"] * 16


def test_analyze_rejects_facet_index_out_of_range(tmp_path, capsys):
    doc = shapes.tetrahedron().serialize()
    doc["facets"][-1] = [1, 2, -1]
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "analyze", "--polytope", str(path), "--out", str(tmp_path / "out")
    )
    assert code == 2
    assert "BadDocument" in err and "facet 3" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dim": 1, "vertices": [[0.0], [1.0]]},
         "NotFullDimensional: ambient dimension must be at least 2"),
        ({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "facets": [5, [1, 2], [0, 2]]},
         "BadDocument: facet 0 must be a list of vertex indices"),
    ],
    ids=["dim-1", "facet-not-a-list"],
)
def test_analyze_rejects_a_malformed_document(tmp_path, capsys, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "analyze", "--polytope", str(path), "--out", str(out_dir))
    assert code == 2
    assert message in err
    assert out == "" and not out_dir.exists()


def test_analyze_rejects_a_document_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"dim": 2}).encode("utf-16-le"))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "analyze", "--polytope", str(path), "--out", str(out_dir))
    assert code == 2
    assert f"BadDocument: --polytope {path}: not UTF-8" in err
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--model", "euclidean", "--n", "2", "--vmin", "0.01",
         "--vmax", "1.0", "--svg"],
        ["gallery", "cube-competitors", "--svg"],
    ],
    ids=["profile", "gallery"],
)
@pytest.mark.parametrize("points", ["0", "-1"])
def test_points_below_one_are_rejected(tmp_path, capsys, argv, points):
    code, _, err = run(capsys, *argv, "--points", points, "--out", str(tmp_path))
    assert code == 2
    assert "ValidationError" in err and "--points" in err


def test_epsilon_of_half_the_inradius_is_a_validation_error(tmp_path, capsys):
    # at half the inradius the smoothed radii have no proven bound, which is
    # known before anything is computed
    code, _, err = run(
        capsys,
        "smooth",
        "--polytope", "square",
        "--eps", "0.5",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "EpsilonTooLarge" in err


def test_unconverged_newton_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    # directions near the square's corners at eps 0.2 need Newton steps, so a
    # cap of one evaluation leaves them moving
    monkeypatch.setattr(smoothing, "NEWTON_ITERS", 1)
    code, _, err = run(
        capsys, "smooth", "--polytope", "square", "--eps", "0.2",
        "--out", str(tmp_path),
    )
    assert code == 3
    assert "NumericalError" in err and "unconverged" in err


def test_nan_epsilon_is_a_validation_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "smooth",
        "--polytope", "square",
        "--eps", "nan",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "ValidationError: epsilon must be in (0.0, inf), got nan" in err


def test_analyze_hypercube_marks_vertex_zero(tmp_path, capsys):
    # all sixteen links are 2*pi up to rounding, so the lowest index wins
    code, out, _ = run(
        capsys, "analyze", "--polytope", "hypercube", "--out", str(tmp_path)
    )
    assert code == 0
    _, _, rows = read_artifact(tmp_path / "analysis.csv")
    assert [r[6] for r in rows] == ["true"] + ["false"] * 15
    assert "optimal vertex: 0 " in out


#: sha256 of every artifact of criterion 10's invocations, keyed by the
#: space-joined argv and then the artifact name
PINNED_ARTIFACTS = json.loads(
    (Path(__file__).parent / "data" / "cli_artifacts.json").read_text()
)


def artifact_digests(argv, out):
    """Run one invocation in-process into ``out`` and hash its artifacts."""
    assert main([*argv, "--out", str(out)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def test_artifacts_are_pinned_across_commits(tmp_path, capsys):
    """Criterion 10 compares two runs of one build; these digests, recorded
    before the CSV writer took records, also catch a change that rewrites
    every run's artifacts alike.  Like the hex pins they assume numpy 2.4.6
    and scipy 1.17.1."""
    digests = {
        " ".join(argv): artifact_digests(argv, tmp_path / str(i))
        for i, argv in enumerate(CLI_CASES)
    }
    capsys.readouterr()
    assert digests == PINNED_ARTIFACTS


@pytest.mark.parametrize("argv, stages", [
    (["analyze", "--polytope", "cube"], ["build", "cones"]),
    (
        ["solve", "--polytope", "cube", "--volume", "0.15", "--level", "3",
         "--iters", "2000", "--restarts", "2", "--seed", "7"],
        ["build", "subdivide", "cones", "minimize"],
    ),
    (
        ["smooth", "--polytope", "square", "--eps", "0.2", "--dirs", "16"],
        ["body", "probe", "hull"],
    ),
])
def test_timings_go_to_stderr_and_leave_artifacts_alone(tmp_path, capsys, argv, stages):
    plain, timed = tmp_path / "plain", tmp_path / "timed"
    code, out_plain, err = run(capsys, *argv, "--out", str(plain))
    assert code == 0 and "timing" not in err
    code, out_timed, err = run(capsys, *argv, "--timings", "--out", str(timed))
    assert code == 0
    assert out_timed == out_plain
    lines = err.splitlines()
    solve = argv[0] == "solve"
    assert [line.split(":")[0] for line in lines] == [
        f"timing {s}" for s in stages
    ] + ["minimize throughput"] * solve + ["peak memory"]
    assert all(float(line.split()[-2]) >= 0.0 for line in lines[:len(stages)])
    if solve:
        # 2000 iterations times 2 restarts over the whole minimize stage
        minimize = float(lines[len(stages) - 1].split()[-2])
        rate, unit = lines[-2].split(": ")[1].split(" ", 1)
        assert unit == "iterations/s (tables, walks and polish)"
        assert float(rate) == pytest.approx(4000 / minimize, rel=1e-3)
    assert lines[-1].endswith(" MiB") and float(lines[-1].split()[-2]) > 0.0
    names = sorted(path.name for path in plain.iterdir())
    assert names == sorted(path.name for path in timed.iterdir()) and names
    for name in names:
        assert (plain / name).read_bytes() == (timed / name).read_bytes(), name


def test_slice_rejects_oversized_windows_at_once(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "slice", "--n", "4", "--N", "200", "--out", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "ValidationError: --N 200 gives 266700000 pieces" in err
    assert out == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gallery", "spiked-cone", "--volume", "nan"], "VolumeOutOfRange"),
        (["gallery", "double-pyramid", "--volume", "nan"], "VolumeOutOfRange"),
        (["gallery", "double-pyramid", "--volume", "inf"], "VolumeOutOfRange"),
        (["gallery", "double-pyramid", "--base-link", "nan"], "base_link must be in"),
        (["gallery", "cube-competitors", "--vmin=-1"], "VolumeOutOfRange"),
        (["gallery", "cube-competitors", "--vmin", "5", "--vmax", "1"],
         "VolumeOutOfRange: --vmax must be in (5.0, inf), got 1.0"),
        (["gallery", "cube-competitors", "--vmin", "1", "--vmax", "1", "--points", "5"],
         "VolumeOutOfRange: --vmax must be in (1.0, inf), got 1.0"),
        (["profile", "--model", "euclidean", "--n", "2", "--vmin", "0.1",
          "--vmax", "inf"], "VolumeOutOfRange"),
        (["gallery", "double-pyramid", "--theta", "1e-300", "--volume", "1e-300"],
         "underflows"),
        (["solve", "--polytope", "cube", "--volume", "0.1", "--level", "1",
          "--restarts", "0"], "restarts must be at least 1"),
        (["solve", "--polytope", "cube", "--volume", "0.1", "--level", "1",
          "--iters", "-5"], "iterations must be at least 1"),
        (["smooth", "--polytope", "cube", "--eps", "0.1", "--dirs", "-5"],
         "--dirs must be at least 1"),
        (["smooth", "--polytope", "square", "--eps", "0.1", "--dirs", "0"],
         "--dirs must be at least 1"),
        (["profile", "--model", "euclidean", "--n", "3000", "--vmin", "0.1",
          "--vmax", "1"], "DimensionTooHigh"),
        (["profile", "--model", "cone", "--n", "3000", "--omega", "1",
          "--vmin", "0.1", "--vmax", "1"], "DimensionTooHigh"),
        (["profile", "--model", "euclidean", "--n", "900", "--vmin", "0.1",
          "--vmax", "1", "--svg"], "DimensionTooHigh"),
        (["profile", "--model", "sphere", "--n", "436", "--vmin", "1e-300",
          "--vmax", "2e-300"], "DimensionTooHigh"),
        (["solve", "--polytope", "cube", "--volume", "-1", "--level", "1"],
         "VolumeOutOfRange"),
        (["solve", "--polytope", "cube", "--volume", "1e-300", "--level", "1"],
         "smallest triangle has area"),
        (["gallery", "spiked-cone", "--half-angle=1e-300", "--spike-height=1e300",
          "--volume=nan"], "VolumeOutOfRange"),
        (["gallery", "spiked-cone", "--half-angle=1e-300", "--spike-height=1e300",
          "--volume=0.001"], "spike height"),
        (["analyze", "--polytope", str(Path(__file__).parent)],
         "BadDocument: --polytope"),
        (["analyze", "--polytope", "cube", "--out", __file__],
         "ValidationError: --out"),
        (["analyze"], "ValidationError: analyze requires --polytope"),
        (["smooth", "--eps", "0.1"], "ValidationError: smooth requires --polytope"),
        (["solve", "--volume", "0.1"], "ValidationError: solve requires --polytope"),
        (["profile", "--model", "euclidean", "--n", "2", "--vmin", "0.1",
          "--vmax", "1", "--points", "100000000"],
         "ValidationError: --points must be at least 1 and at most 100000"),
        (["gallery", "cube-competitors", "--points", "100001"],
         "ValidationError: --points must be at least 1 and at most 100000"),
        (["smooth", "--polytope", "cube", "--eps", "0.1", "--dirs", "1000000000"],
         "ValidationError: --dirs must be at least 1 and at most 100000"),
        (["profile", "--model", "sphere", "--n", "2", "--omega", "1.0",
          "--vmin", "0.1", "--vmax", "1"],
         "ValidationError: --omega applies only to --model cone, got --model sphere"),
        (["profile", "--model", "euclidean", "--n", "2", "--omega", "1.0",
          "--vmin", "0.1", "--vmax", "1"],
         "ValidationError: --omega applies only to --model cone"),
        (["slice", "--n", "3", "--N", "3", "--svg"],
         "ValidationError: --svg plots only --n 2 slices, got --n 3"),
        (["smooth", "--polytope", "cube", "--eps", "0.3"],
         "EpsilonTooLarge: epsilon 0.3 is not below half the inradius"),
        (["smooth", "--polytope", "hypercube", "--eps", "0.1"],
         "UnsupportedDimension: smoothing needs d = 2 or 3, got d = 4"),
        (["gallery", "spiked-cone", "--spike-height", "0"],
         "ValidationError: --spike-height 0.0 (in cube sides) x tan(--half-angle) "
         "gives a spike base of circumradius 0, outside (0, 1/2)"),
        (["gallery", "spiked-cone", "--spike-height", "-0.4"],
         "ValidationError: --spike-height -0.4 (in cube sides) x tan(--half-angle) "
         "gives a spike base of circumradius -0.0349955, outside (0, 1/2)"),
        (["gallery", "spiked-cone", "--half-angle", "90"],
         "ValidationError: --half-angle must be in (0.0, 35.26438968275466), got 90.0"),
        (["gallery", "spiked-cone", "--half-angle", "30"],
         "ValidationError: --spike-height 3.0 (in cube sides) x tan(--half-angle) "
         "gives a spike base of circumradius 1.73205, outside (0, 1/2)"),
        (["profile", "--model", "cone", "--n", "2", "--omega", "4.7", "--vmin", "1",
          "--vmax", "1.7e308"], "VolumeOutOfRange: n * volume = 2 * 1.7e+308 overflows"),
        (["gallery", "spiked-cone", "--volume", "1.7e308"],
         "VolumeOutOfRange: n * volume = 3 * 1.7e+308 overflows"),
        (["gallery", "double-pyramid", "--theta", "6", "--volume", "1.7e308"],
         "VolumeOutOfRange: theta * volume = 6.0 * 1.7e+308 overflows"),
        (["gallery", "cube-competitors", "--vmin", "1", "--vmax", "1.0000000000000002",
          "--points", "3"],
         "ValidationError: --vmin 1.0 and --vmax 1.0000000000000002 are too close for "
         "--points 3"),
        (["profile", "--model", "euclidean", "--n", "2", "--vmin", "1", "--vmax",
          "1.0000000000000002", "--points", "3"],
         "ValidationError: --vmin 1.0 and --vmax 1.0000000000000002 are too close for "
         "--points 3"),
        (["smooth", "--polytope", "square", "--eps", "0.2", "--seed", "-1"],
         "ValidationError: seed must be at least 0, got -1"),
    ],
    ids=["spike-volume-nan", "volume-nan", "volume-inf",
         "base-link-nan", "competitors-vmin-negative", "competitors-reversed",
         "competitors-empty", "profile-vmax-inf",
         "underflow", "restarts-0", "iters-negative", "dirs-negative", "dirs-0",
         "profile-n-3000", "cone-n-3000", "profile-n-900-svg", "sphere-n-436",
         "solve-volume-negative", "solve-volume-unreachable",
         "spike-overflow-volume-nan", "spike-overflow", "polytope-is-a-directory",
         "out-is-a-file", "analyze-no-polytope", "smooth-no-polytope",
         "solve-no-polytope", "profile-points-1e8", "competitors-points-100001",
         "dirs-1e9", "sphere-omega", "euclidean-omega", "slice-n3-svg",
         "smooth-eps-too-large", "smooth-4-polytope", "spike-height-0",
         "spike-height-negative", "half-angle-90", "spike-base-too-wide",
         "cone-volume-overflow", "spike-volume-overflow", "double-pyramid-overflow",
         "competitors-repeated-volumes", "profile-repeated-volumes", "smooth-seed-negative"],
)
def test_out_of_range_values_are_rejected(tmp_path, capsys, argv, message):
    if "--out" not in argv:
        argv = [*argv, "--out", str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == "" and not list(tmp_path.iterdir())


def test_solve_names_a_negative_seed(tmp_path, capsys):
    code, out, err = run(capsys, "solve", "--polytope", "cube", "--level", "1",
                         "--volume", "0.1", "--seed", "-1", "--out", str(tmp_path))
    assert code == 2
    assert "ValidationError: seed must be at least 0, got -1" in err
    assert out == "" and not list(tmp_path.iterdir())


# a cheap run of each command path, the flags that path accepts, and a flag
# another path takes that this one must reject
COMMAND_PATHS = [
    (["analyze", "--polytope", "cube"], ["--out", "--polytope", "--timings"],
     "--svg"),
    (["slice", "--n", "2", "--N", "3"], ["--out", "--svg", "--n", "--N"],
     "--polytope=cube"),
    (["smooth", "--polytope", "square", "--eps", "0.2", "--dirs", "16"],
     ["--out", "--polytope", "--seed", "--timings", "--eps", "--dirs"], "--svg"),
    (["profile", "--model", "euclidean", "--n", "2", "--vmin", "0.1", "--vmax", "1"],
     ["--out", "--svg", "--model", "--n", "--omega", "--vmin", "--vmax", "--points"],
     "--seed=1"),
    (["solve", "--polytope", "cube", "--volume", "0.375", "--level", "1",
      "--iters", "200", "--restarts", "1"],
     ["--out", "--polytope", "--seed", "--timings", "--volume", "--level", "--iters",
      "--restarts"], "--svg"),
    (["gallery", "double-pyramid"], ["--out", "--theta", "--volume", "--base-link"],
     "--seed=5"),
    (["gallery", "spiked-cone"],
     ["--out", "--half-angle", "--spike-height", "--volume"], "--points=3"),
    (["gallery", "cube-competitors", "--points", "4"],
     ["--out", "--svg", "--vmin", "--vmax", "--points"], "--volume=0.1"),
]


def _path(argv):
    return argv[:2] if argv[0] == "gallery" else argv[:1]


_PATH_IDS = ["-".join(_path(argv)) for argv, _, _ in COMMAND_PATHS]


@pytest.mark.parametrize("argv, flags, foreign", COMMAND_PATHS, ids=_PATH_IDS)
def test_each_command_path_accepts_only_the_flags_it_reads(
    tmp_path, capsys, argv, flags, foreign
):
    parser = build_parser()
    for name in _path(argv):
        (sub,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        parser = sub.choices[name]
    accepted = [s for a in parser._actions for s in a.option_strings]
    assert accepted == ["-h", "--help"] + flags
    with pytest.raises(SystemExit) as exc:
        main([*argv, foreign, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {foreign}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_dispatch_reuses_one_parser(tmp_path, capsys, monkeypatch):
    argv = ["profile", "--model", "euclidean", "--n", "2", "--vmin", "0.1",
            "--vmax", "1", "--points", "4", "--out", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    first = (tmp_path / "profile.csv").read_bytes()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run(capsys, *argv)[0] == 0
    assert (tmp_path / "profile.csv").read_bytes() == first
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flags, foreign", COMMAND_PATHS, ids=_PATH_IDS)
def test_manifest_records_the_flags_that_shape_the_output(
    tmp_path, capsys, argv, flags, foreign
):
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    expected = {f[2:].replace("-", "_") for f in flags} - {"out", "timings"}
    if argv[0] == "gallery":
        expected.add("exhibit")
    artifacts = sorted(tmp_path.glob("*.csv"))
    assert artifacts
    for artifact in artifacts:
        manifest, _, _ = read_artifact(artifact)
        assert set(manifest) == {"command", "flags", "input_digest", "version"}
        assert set(manifest["flags"]) == expected, artifact.name


def test_solve_bound_check_is_na_beyond_the_star_range(tmp_path, capsys):
    # a cube corner ball stays in its star only up to 3*pi/4 ~ 2.356
    code, out, _ = run(
        capsys,
        "solve",
        "--polytope", "cube",
        "--volume", "3",
        "--level", "2",
        "--iters", "2000",
        "--restarts", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "bound check: n/a" in out


def test_solve_bound_check_prints_the_star_bound_in_full(tmp_path, capsys):
    # 3.14159265359 passes the octahedron's bound pi = 3.1415926535897922 in
    # the twelfth digit, so at twelve digits the two would read the same
    code, out, _ = run(
        capsys,
        "solve",
        "--polytope", "octahedron",
        "--volume", "3.14159265359",
        "--level", "2",
        "--iters", "2000",
        "--restarts", "2",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "bound check: n/a (volume exceeds 3.1415926535897922)\n" in out


_FLOATS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "5e-324", "1e-300", "0.001", "0.05", "0.5", "3",
     "1e300", "1.7e308"]
)
# a nan or inf printed as a number, not part of a word
_NON_FINITE = re.compile(r"(?<![\w.])[-+]?(?:nan|inf)(?![\w.])", re.IGNORECASE)
_INTS = st.sampled_from(["-1", "0", "1", "2", "3"])
_DIMS = st.sampled_from(["-1", "0", "1", "2", "3", "900", "3000"])
_SHAPES = st.sampled_from(sorted(BUILTIN_SHAPES))
_TIMINGS = st.sampled_from([[], ["--timings"]])
_SEEDS = st.sampled_from(["-1", "0", "7", str(2**64)])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["analyze", "slice", "smooth", "profile", "solve", "double-pyramid",
         "spiked-cone", "cube-competitors"]
    ))
    if command == "analyze":
        return [command, f"--polytope={draw(_SHAPES)}"] + draw(_TIMINGS)
    if command == "slice":
        return [command, f"--n={draw(_INTS)}", f"--N={draw(_INTS)}"]
    if command == "smooth":
        # cheap shapes keep the 4096-trial convexity probe fast
        shape = draw(st.sampled_from(["square", "triangle", "cube"]))
        dirs = draw(st.sampled_from(["-1", "0", "8"]))
        return [command, f"--polytope={shape}", f"--eps={draw(_FLOATS)}", f"--dirs={dirs}",
                f"--seed={draw(_SEEDS)}"]
    if command == "profile":
        model = draw(st.sampled_from(["euclidean", "sphere", "cone"]))
        # --omega only on the cone model, where it is read (elsewhere it exits 2)
        omega = [f"--omega={draw(_FLOATS)}"] if model == "cone" else []
        return [command, f"--model={model}", f"--n={draw(_DIMS)}", *omega,
                f"--vmin={draw(_FLOATS)}", f"--vmax={draw(_FLOATS)}",
                f"--points={draw(_INTS)}"]
    if command == "solve":
        level = draw(st.sampled_from(["-1", "0", "1", "2", "9"]))
        iters = draw(st.sampled_from(["-5", "0", "1", "300"]))
        return [command, f"--polytope={draw(_SHAPES)}", f"--volume={draw(_FLOATS)}",
                f"--level={level}", f"--iters={iters}", f"--restarts={draw(_INTS)}",
                f"--seed={draw(_SEEDS)}", *draw(_TIMINGS)]
    if command == "double-pyramid":
        return ["gallery", command, f"--theta={draw(_FLOATS)}",
                f"--volume={draw(_FLOATS)}", f"--base-link={draw(_FLOATS)}"]
    if command == "spiked-cone":
        return ["gallery", command, f"--half-angle={draw(_FLOATS)}",
                f"--spike-height={draw(_FLOATS)}", f"--volume={draw(_FLOATS)}"]
    return ["gallery", command, f"--vmin={draw(_FLOATS)}", f"--vmax={draw(_FLOATS)}",
            f"--points={draw(_INTS)}"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_argv())
# volumes whose perimeters overflow, which once printed inf or nan and exited 0
@example(argv=["profile", "--model=cone", "--n=2", "--omega=4.7", "--vmin=1",
               "--vmax=1.7e308", "--points=3"])
@example(argv=["gallery", "spiked-cone", "--volume=1.7e308"])
@example(argv=["gallery", "double-pyramid", "--theta=6", "--volume=1.7e308"])
# a negative seed, which once reached numpy and exited 1
@example(argv=["smooth", "--polytope=square", "--eps=0.2", "--seed=-1"])
def test_fuzzed_flags_end_in_a_documented_exit_code(tmp_path_factory, argv):
    # a run that succeeds prints no nan or inf, on stdout or in its CSV data
    # (the manifest lines echo the flags, which may be anything); a run that
    # fails names the error class of its exit code on its last stderr line
    out = tmp_path_factory.mktemp("fuzz")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out)])
    assert code in (0, 2, 3), argv
    if code in (2, 3):
        last = stderr.getvalue().splitlines()[-1]
        named = re.match(r"polyperim: error: (\w+): ", last)
        assert named, (argv, last)
        cls = getattr(errors, named[1], None)
        assert isinstance(cls, type) and issubclass(cls, errors.PolyperimError), (argv, last)
        assert issubclass(cls, errors.NumericalError) == (code == 3), (argv, last)
    if code == 0:
        lines = stdout.getvalue().splitlines()
        for path in sorted(out.glob("*.csv")):
            lines += [x for x in path.read_text().splitlines() if not x.startswith("#")]
        bad = [x for x in lines if _NON_FINITE.search(x)]
        assert not bad, (argv, bad)
