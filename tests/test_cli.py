import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyperim import shapes, smoothing
from polyperim.cli import BUILTIN_SHAPES, build_parser, dispatch, main


def run(capsys, *argv):
    code = dispatch(list(argv))
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
    assert not (tmp_path / "out" / "analysis.csv").exists()


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
    assert not (tmp_path / "out" / "analysis.csv").exists()


def test_analyze_rejects_a_document_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"dim": 2}).encode("utf-16-le"))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "analyze", "--polytope", str(path), "--out", str(out_dir))
    assert code == 2
    assert f"BadDocument: --polytope {path}: not UTF-8" in err
    assert out == "" and not list(out_dir.iterdir())


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


def test_numerical_exit_code(tmp_path, capsys):
    # at half the inradius the smoothed radii have no proven bound
    code, _, err = run(
        capsys,
        "smooth",
        "--polytope", "square",
        "--eps", "0.5",
        "--out", str(tmp_path),
    )
    assert code == 3
    assert "RootNotBracketed" in err


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
    assert "epsilon must be positive" in err


def test_analyze_hypercube_marks_vertex_zero(tmp_path, capsys):
    # all sixteen links are 2*pi up to rounding, so the lowest index wins
    code, out, _ = run(
        capsys, "analyze", "--polytope", "hypercube", "--out", str(tmp_path)
    )
    assert code == 0
    _, _, rows = read_artifact(tmp_path / "analysis.csv")
    assert [r[6] for r in rows] == ["true"] + ["false"] * 15
    assert "optimal vertex: 0 " in out


def test_reruns_are_byte_identical(tmp_path, capsys):
    argv = [
        "profile",
        "--model", "cone",
        "--omega", "4.71238898038469",
        "--n", "2",
        "--vmin", "0.01",
        "--vmax", "0.75",
        "--points", "24",
        "--svg",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert dispatch(argv + ["--out", str(a)]) == 0
    assert dispatch(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
    assert (a / "profile.svg").read_bytes() == (b / "profile.svg").read_bytes()


@pytest.mark.parametrize("argv, stages", [
    (["analyze", "--polytope", "cube"], ["build", "cones"]),
    (
        ["solve", "--polytope", "cube", "--volume", "0.15", "--level", "3",
         "--iters", "2000", "--restarts", "2", "--seed", "7"],
        ["build", "subdivide", "cones", "minimize"],
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
    assert [line.split(":")[0] for line in lines] == [f"timing {s}" for s in stages]
    assert all(float(line.split()[-2]) >= 0.0 for line in lines)
    names = sorted(path.name for path in plain.iterdir())
    assert names == sorted(path.name for path in timed.iterdir()) and names
    for name in names:
        assert (plain / name).read_bytes() == (timed / name).read_bytes(), name


def test_main_entry_point(tmp_path, capsys):
    assert main(["analyze", "--polytope", "square", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "polyperim", "slice", "--n", "2", "--N", "3",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pieces: 9" in proc.stdout
    _, _, rows = read_artifact(tmp_path / "pieces.csv")
    assert len(rows) == 9


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
        (["gallery", "double-pyramid", "--base-link", "nan"], "base link"),
        (["gallery", "cube-competitors", "--vmin=-1"], "VolumeOutOfRange"),
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
    ],
    ids=["spike-volume-nan", "volume-nan", "volume-inf",
         "base-link-nan", "competitors-vmin-negative", "profile-vmax-inf",
         "underflow", "restarts-0", "iters-negative", "dirs-negative", "dirs-0",
         "profile-n-3000", "cone-n-3000", "profile-n-900-svg", "sphere-n-436",
         "solve-volume-negative", "solve-volume-unreachable",
         "spike-overflow-volume-nan", "spike-overflow", "polytope-is-a-directory",
         "out-is-a-file", "analyze-no-polytope", "smooth-no-polytope",
         "solve-no-polytope"],
)
def test_out_of_range_values_are_rejected(tmp_path, capsys, argv, message):
    if "--out" not in argv:
        argv = [*argv, "--out", str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == "" and not list(tmp_path.iterdir())


# a cheap run of each command path, the flags that path accepts, and a flag
# another path takes that this one must reject
COMMAND_PATHS = [
    (["analyze", "--polytope", "cube"], ["--out", "--polytope", "--timings"],
     "--svg"),
    (["slice", "--n", "2", "--N", "3"], ["--out", "--svg", "--n", "--N"],
     "--polytope=cube"),
    (["smooth", "--polytope", "square", "--eps", "0.2", "--dirs", "16"],
     ["--out", "--polytope", "--seed", "--eps", "--dirs"], "--svg"),
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
        dispatch([*argv, foreign, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {foreign}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


_FLOATS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.001", "0.05", "0.5", "3", "1e300"]
)
_INTS = st.sampled_from(["-1", "0", "1", "2", "3"])
_DIMS = st.sampled_from(["-1", "0", "1", "2", "3", "900", "3000"])
_SHAPES = st.sampled_from(sorted(BUILTIN_SHAPES))
_TIMINGS = st.sampled_from([[], ["--timings"]])


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
        return [command, f"--polytope={shape}", f"--eps={draw(_FLOATS)}", f"--dirs={dirs}"]
    if command == "profile":
        model = draw(st.sampled_from(["euclidean", "sphere", "cone"]))
        return [command, f"--model={model}", f"--n={draw(_DIMS)}",
                f"--omega={draw(_FLOATS)}", f"--vmin={draw(_FLOATS)}",
                f"--vmax={draw(_FLOATS)}", f"--points={draw(_INTS)}"]
    if command == "solve":
        level = draw(st.sampled_from(["-1", "0", "1", "2", "9"]))
        iters = draw(st.sampled_from(["-5", "0", "1", "300"]))
        return [command, f"--polytope={draw(_SHAPES)}", f"--volume={draw(_FLOATS)}",
                f"--level={level}", f"--iters={iters}", f"--restarts={draw(_INTS)}",
                *draw(_TIMINGS)]
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
def test_fuzzed_flags_end_in_a_documented_exit_code(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("fuzz")
    assert dispatch(argv + ["--out", str(out)]) in (0, 2, 3), argv
