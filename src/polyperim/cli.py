"""Command-line front end.

Subcommands map one-to-one onto the library modules:

* ``analyze``  — per-vertex link measures and apex ball profiles
* ``slice``    — simplex slab slicing and congruence classification
* ``smooth``   — mollified gauge body of a convex polytope
* ``profile``  — closed-form isoperimetric profile tables
* ``solve``    — discrete perimeter minimization on a cube surface mesh
* ``gallery``  — analytic competitor exhibits

Every CSV artifact begins with two comment lines carrying the run manifest
(command, flags, version, input digest) and its sha256, so a consumer can
check which invocation produced a file.  A command accepts only the flags it
reads, so the manifest's flags are those that shape the output.  Identical
invocations produce byte-identical artifacts, including the optional SVG
plots; all floats are printed with ``%.12g`` and negative zero is normalized.

``analyze`` and ``solve`` take ``--timings``, which prints the seconds of
each stage (build, subdivide, cones, minimize) to stderr.  The flag is left
out of the manifest, so artifacts are the same with and without it.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 64 unknown
command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from . import __version__, shapes
from .cones import apex_ball_profile, rank_by_link, vertex_cones
from .errors import BadDocument, NumericalError, ValidationError, VolumeOutOfRange
from .gallery import (
    competitor_table,
    double_pyramid_report,
    spike_link_from_half_angle,
    spiked_cone_report,
    winner_crossovers,
)
from .mesh import subdivide
from .polytope import Polytope, polytope_measure
from .profiles import Profile, cone_profile
from .slicing import classify_pieces, enumerate_pieces
from .smoothing import convexity_probe, smoothed_body
from .solver import (
    anisotropy_bound,
    default_config,
    minimize_perimeter,
    vertex_ball_region,
)

COMMANDS = ("analyze", "slice", "smooth", "profile", "solve", "gallery")
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_UNKNOWN_COMMAND = 64

#: builtin shapes accepted by --polytope in place of a JSON document path
BUILTIN_SHAPES = {
    "cube": shapes.cube,
    "hypercube": shapes.hypercube,
    "tetrahedron": shapes.tetrahedron,
    "octahedron": shapes.octahedron,
    "square-pyramid": shapes.square_pyramid,
    "triangular-prism": shapes.triangular_prism,
    "square": shapes.square,
    "triangle": shapes.triangle,
    "simplex4": shapes.simplex4,
}

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


# ---------------------------------------------------------------------------
# formatting and artifact plumbing
# ---------------------------------------------------------------------------

def _g(x: float) -> str:
    s = "%.12g" % float(x)
    return "0" if s in ("-0", "-0.0") else s


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _g(value)
    return str(value)


@dataclass(frozen=True)
class RunManifest:
    command: str
    flags: dict
    version: str
    input_digest: str

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "flags": self.flags,
            "input_digest": self.input_digest,
            "version": self.version,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def header_lines(self) -> list[str]:
        return [
            f"# manifest {self.to_json()}",
            f"# manifest-digest sha256:{self.digest()}",
        ]


def _manifest(args: argparse.Namespace, input_digest: str = "-") -> RunManifest:
    # --out is a pure artifact sink and --timings only writes to stderr:
    # excluding them keeps outputs byte-identical with or without them.
    flags = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "out", "func", "timings")
    }
    return RunManifest(
        command=args.command,
        flags=flags,
        version=__version__,
        input_digest=input_digest,
    )


def _emit_csv(out: Path, name: str, manifest: RunManifest, header, rows) -> Path:
    path = out / name
    lines = manifest.header_lines()
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _load_polytope_arg(args: argparse.Namespace) -> tuple[Polytope, str]:
    """Resolve --polytope as a builtin name or a JSON document path.

    A document is read once, so the digest describes the bytes parsed."""
    value = args.polytope
    if not value:
        raise ValidationError(f"{args.command} requires --polytope")
    if value in BUILTIN_SHAPES:
        poly = BUILTIN_SHAPES[value]()
        blob = json.dumps(poly.serialize(), sort_keys=True).encode("utf-8")
    else:
        try:
            blob = Path(value).read_bytes()
        except OSError as exc:
            raise BadDocument(f"--polytope {value}: {exc.strerror}") from None
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadDocument(
                f"--polytope {value}: not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
        poly = Polytope.loads(text)
    return poly, hashlib.sha256(blob).hexdigest()


class _Stages:
    """Wall seconds per named stage, printed to stderr under --timings."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - start

    def report(self) -> None:
        if self.enabled:
            for name, seconds in self.seconds.items():
                print(f"timing {name}: {seconds:.6f} s", file=sys.stderr)


# ---------------------------------------------------------------------------
# SVG plotting (hand-rolled for byte determinism)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 720, 540
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 80, 24, 24, 56


def _svg_open(manifest: RunManifest) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f"<!-- manifest-digest sha256:{manifest.digest()} -->",
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]


def _emit_svg_loglog(
    out: Path,
    name: str,
    manifest: RunManifest,
    curves,
    x_label: str = "V",
    y_label: str = "A",
) -> Path:
    """Log-log polyline plot of (label, volumes, areas) curves."""
    pts = [
        (np.log10(np.asarray(v, float)), np.log10(np.asarray(a, float)))
        for _, v, a in curves
    ]
    xlo = min(float(lv.min()) for lv, _ in pts)
    xhi = max(float(lv.max()) for lv, _ in pts)
    ylo = min(float(la.min()) for _, la in pts)
    yhi = max(float(la.max()) for _, la in pts)
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    xpad, ypad = 0.04 * (xhi - xlo), 0.04 * (yhi - ylo)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    def X(lx: float) -> str:
        return "%.2f" % (
            _SVG_ML + (lx - xlo) * (_SVG_W - _SVG_ML - _SVG_MR) / (xhi - xlo)
        )

    def Y(ly: float) -> str:
        return "%.2f" % (
            _SVG_H - _SVG_MB - (ly - ylo) * (_SVG_H - _SVG_MT - _SVG_MB) / (yhi - ylo)
        )

    lines = _svg_open(manifest)
    lines.append(
        f'<rect x="{_SVG_ML}" y="{_SVG_MT}" '
        f'width="{_SVG_W - _SVG_ML - _SVG_MR}" '
        f'height="{_SVG_H - _SVG_MT - _SVG_MB}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for k in range(math.ceil(xlo), math.floor(xhi) + 1):
        x = X(k)
        lines.append(
            f'<line x1="{x}" y1="{_SVG_MT}" x2="{x}" y2="{_SVG_H - _SVG_MB}" '
            'stroke="#cccccc" stroke-width="0.5"/>'
        )
        lines.append(
            f'<text x="{x}" y="{_SVG_H - _SVG_MB + 18}" font-size="12" '
            f'text-anchor="middle" font-family="monospace">1e{k}</text>'
        )
    for k in range(math.ceil(ylo), math.floor(yhi) + 1):
        y = Y(k)
        lines.append(
            f'<line x1="{_SVG_ML}" y1="{y}" x2="{_SVG_W - _SVG_MR}" y2="{y}" '
            'stroke="#cccccc" stroke-width="0.5"/>'
        )
        lines.append(
            f'<text x="{_SVG_ML - 6}" y="{y}" font-size="12" text-anchor="end" '
            f'font-family="monospace">1e{k}</text>'
        )
    lines.append(
        f'<text x="{(_SVG_ML + _SVG_W - _SVG_MR) // 2}" y="{_SVG_H - 14}" '
        f'font-size="13" text-anchor="middle" font-family="monospace">'
        f"log {x_label}</text>"
    )
    lines.append(
        f'<text x="18" y="{(_SVG_MT + _SVG_H - _SVG_MB) // 2}" font-size="13" '
        f'text-anchor="middle" font-family="monospace" '
        f'transform="rotate(-90 18 {(_SVG_MT + _SVG_H - _SVG_MB) // 2})">'
        f"log {y_label}</text>"
    )
    for ci, (label, v, a) in enumerate(curves):
        lv, la = pts[ci]
        coords = " ".join(f"{X(float(x))},{Y(float(y))}" for x, y in zip(lv, la))
        color = _PALETTE[ci % len(_PALETTE)]
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        ly = _SVG_MT + 16 + 16 * ci
        lines.append(
            f'<line x1="{_SVG_ML + 8}" y1="{ly}" x2="{_SVG_ML + 30}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{_SVG_ML + 36}" y="{ly + 4}" font-size="12" '
            f'font-family="monospace">{label}</text>'
        )
    lines.append("</svg>")
    path = out / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _emit_svg_pieces(out: Path, name: str, manifest: RunManifest, pieces) -> Path:
    """Filled outline plot of 2-d slice pieces, colored by level."""
    allv = np.vstack([p.vertices for p in pieces])
    lo = allv.min(axis=0)
    hi = allv.max(axis=0)
    span = float(max(hi - lo))
    scale = (min(_SVG_W, _SVG_H) - 80) / span
    ox = (_SVG_W - scale * float(hi[0] - lo[0])) / 2.0
    oy = (_SVG_H - scale * float(hi[1] - lo[1])) / 2.0
    lines = _svg_open(manifest)
    for p in pieces:
        coords = " ".join(
            "%.2f,%.2f"
            % (
                ox + scale * (x - lo[0]),
                _SVG_H - oy - scale * (y - lo[1]),
            )
            for x, y in p.vertices
        )
        color = _PALETTE[(p.level - 1) % len(_PALETTE)]
        lines.append(
            f'<polygon points="{coords}" fill="{color}" fill-opacity="0.55" '
            'stroke="black" stroke-width="0.8"/>'
        )
    lines.append("</svg>")
    path = out / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args: argparse.Namespace, out: Path) -> int:
    timer = _Stages(args.timings)
    with timer("build"):
        poly, digest = _load_polytope_arg(args)
    manifest = _manifest(args, digest)
    with timer("cones"):
        cones = vertex_cones(poly)
        best_index = rank_by_link(cones)[0].vertex_index
    rows = []
    for cone in cones:
        prof = apex_ball_profile(cone)
        rows.append([
            _fmt(cone.vertex_index),
            _fmt(cone.link_volume),
            _fmt(cone.r_max),
            _fmt(prof.coefficient),
            _fmt(prof.exponent),
            _fmt(cone.valid_volume_max),
            _fmt(cone.vertex_index == best_index),
        ])
    _emit_csv(
        out,
        "analysis.csv",
        manifest,
        ["vertex_index", "omega", "r_max", "c", "t", "valid_volume_max", "is_optimal"],
        rows,
    )
    n = poly.surface_dim
    print(f"vertices: {len(cones)}")
    print(
        f"optimal vertex: {best_index} "
        f"(link {_g(cones[best_index].link_volume)})"
    )
    if n >= 2:
        variant = (n - 2) / (n - 1)
        print(
            f"profile exponent t = {_g((n - 1) / n)}; "
            f"alternate convention (n-2)/(n-1) = {_g(variant)}"
        )
    if poly.dim == 3:
        deficits = sum(2.0 * math.pi - c.link_volume for c in cones)
        print(
            f"link deficit sum: {_g(deficits)} "
            f"(4*pi = {_g(4.0 * math.pi)})"
        )
    timer.report()
    return EXIT_OK


def _cmd_slice(args: argparse.Namespace, out: Path) -> int:
    manifest = _manifest(args)
    pieces = enumerate_pieces(args.n, args.N)
    classes = classify_pieces(pieces)
    rep_by_level = {c.level: c.representative for c in classes}
    rows = []
    for p in pieces:
        rows.append([
            "|".join(str(k) for k in p.index),
            _fmt(p.level),
            _fmt(p.volume),
            "|".join(str(k) for k in rep_by_level[p.level].index),
        ])
    _emit_csv(
        out,
        "pieces.csv",
        manifest,
        ["k", "shape_class", "volume", "class_representative"],
        rows,
    )
    print(f"pieces: {len(pieces)}")
    print(f"classes: {len(classes)}")
    verdict = "PASS" if len(classes) <= args.n else "FAIL"
    print(f"classes <= {args.n}: {verdict}")
    if args.svg and args.n == 2:
        _emit_svg_pieces(out, "pieces.svg", manifest, pieces)
    return EXIT_OK


def _cmd_smooth(args: argparse.Namespace, out: Path) -> int:
    if args.dirs < 1:
        raise ValidationError(f"--dirs must be at least 1, got {args.dirs}")
    poly, digest = _load_polytope_arg(args)
    manifest = _manifest(args, digest)
    d = poly.dim
    if d == 2:
        resolution = max(4, (args.dirs + 1) // 2)
    else:
        resolution = max(4, int(round(math.sqrt(args.dirs / 2.0))))
    body = smoothed_body(poly, args.eps, resolution=resolution)
    rho0 = body.plain_radii()
    rows = [
        [_fmt(c) for c in u] + [_fmt(r0), _fmt(re)]
        for u, r0, re in zip(body.directions, rho0, body.radii)
    ]
    header = [f"u{i + 1}" for i in range(d)] + ["rho_plain", "rho_smooth"]
    _emit_csv(out, "boundary.csv", manifest, header, rows)
    vol_poly = polytope_measure(poly.vertices)
    # the body is convex, so the hull of its boundary samples lies inside it
    vol_hull = ConvexHull(body.boundary_points).volume
    report = convexity_probe(body, trials=4096, seed=args.seed)
    print(f"directions: {len(body.directions)}")
    print(f"volume: {_g(body.volume)} (polytope {_g(vol_poly)})")
    print(f"volume deficit: {_g(vol_poly - body.volume)}")
    print(
        f"volume lower bound (hull of boundary points): {_g(vol_hull)} "
        f"(deficit {_g(vol_poly - vol_hull)})"
    )
    print(f"max convexity violation: {_g(report.max_violation)}")
    steps = body.newton_steps
    print(f"newton steps per direction: max {steps.max()}, mean {_g(steps.mean())}")
    print(f"kernel mass error: {_g(body.mollifier.mass_error)}")
    return EXIT_OK


def _require_points(args: argparse.Namespace) -> None:
    if args.points < 1:
        raise ValidationError(f"--points must be at least 1, got {args.points}")


def _cmd_profile(args: argparse.Namespace, out: Path) -> int:
    _require_points(args)
    manifest = _manifest(args)
    if args.model == "cone":
        if args.omega is None:
            raise ValidationError("--model cone requires --omega")
        prof = Profile.cone(args.omega, args.n, args.vmin, args.vmax, args.points)
    elif args.model == "sphere":
        prof = Profile.sphere(args.n, args.vmin, args.vmax, args.points)
    else:
        prof = Profile.euclidean(args.n, args.vmin, args.vmax, args.points)
    rows = [[_fmt(v), _fmt(a)] for v, a in zip(prof.volumes, prof.areas)]
    _emit_csv(out, "profile.csv", manifest, ["V", "A"], rows)
    print(f"model: {prof.label}")
    print(f"rows: {len(rows)}")
    if args.svg:
        _emit_svg_loglog(
            out, "profile.svg", manifest, [(prof.label, prof.volumes, prof.areas)]
        )
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace, out: Path) -> int:
    timer = _Stages(args.timings)
    with timer("build"):
        poly, digest = _load_polytope_arg(args)
    manifest = _manifest(args, digest)
    with timer("subdivide"):
        mesh = subdivide(poly, args.level)
    with timer("cones"):
        ranked = rank_by_link(vertex_cones(poly))
    bound = cone_profile(ranked[0].link_volume, 2, args.volume)
    kappa = anisotropy_bound(mesh)
    config = default_config(
        mesh, seed=args.seed, iterations=args.iters, restarts=args.restarts
    )
    with timer("minimize"):
        warm = []
        for cone in ranked:
            if len(warm) >= args.restarts:
                break
            if args.volume <= cone.valid_volume_max:
                warm.append(vertex_ball_region(mesh, cone.vertex_index, args.volume))
        result = minimize_perimeter(mesh, args.volume, config, warm_starts=warm)
    _emit_csv(
        out,
        "region.csv",
        manifest,
        ["triangle_index"],
        [[_fmt(int(t))] for t in np.flatnonzero(result.region.mask)],
    )
    _emit_csv(
        out,
        "summary.csv",
        manifest,
        [
            "target_volume",
            "area",
            "perimeter",
            "bound",
            "kappa",
            "ceiling",
            "best_restart",
        ],
        [[
            _fmt(args.volume),
            _fmt(result.area),
            _fmt(result.perimeter),
            _fmt(bound),
            _fmt(kappa),
            _fmt(kappa * bound),
            _fmt(result.best_restart),
        ]],
    )
    ok = bound - 1e-9 <= result.perimeter <= kappa * bound
    print(f"triangles: {result.region.triangle_count} of {len(mesh.triangles)}")
    print(f"area: {_g(result.area)} (target {_g(args.volume)})")
    print(
        f"perimeter: {_g(result.perimeter)} "
        f"(bound {_g(bound)}, kappa {_g(kappa)}, ceiling {_g(kappa * bound)})"
    )
    # past the star-contained range the bound is not the apex-ball profile
    if args.volume > ranked[0].valid_volume_max:
        print(f"bound check: n/a (volume exceeds {_g(ranked[0].valid_volume_max)})")
    else:
        print(f"bound check: {'PASS' if ok else 'FAIL'}")
    print(
        "moves per restart (accepted/proposed): "
        + "; ".join(
            f"flips {m.flips_accepted}/{m.flips_proposed}, "
            f"swaps {m.swaps_accepted}/{m.swaps_proposed}, "
            f"snapshots {m.snapshots}, polish flips {m.polish_flips}"
            for m in result.moves
        )
    )
    timer.report()
    return EXIT_OK


def _cmd_gallery(args: argparse.Namespace, out: Path) -> int:
    manifest = _manifest(args)
    if args.exhibit == "double-pyramid":
        rep = double_pyramid_report(args.theta, args.volume, args.base_link)
        columns = (
            "theta",
            "volume",
            "one_sided_area",
            "glued_ball_area",
            "ratio",
            "metric_ball_minimizing",
        )
        _emit_csv(
            out,
            "double_pyramid.csv",
            manifest,
            columns,
            [[_fmt(getattr(rep, c)) for c in columns]],
        )
        print(f"ratio: {_g(rep.ratio)} (sqrt(2) = {_g(math.sqrt(2.0))})")
        print("metric ball minimizing: false")
        if rep.one_sided_beats_base is not None:
            print(
                f"one-sided ball beats base-vertex ball: "
                f"{_fmt(rep.one_sided_beats_base)}"
            )
    elif args.exhibit == "spiked-cone":
        theta_p = spike_link_from_half_angle(math.radians(args.half_angle))
        rep = spiked_cone_report(
            theta_p,
            spike_height=args.spike_height,
            reference_volume=args.volume,
        )
        columns = (
            "theta_p",
            "q_link",
            "apex_link",
            "hypercube_link",
            "q_wins",
            "reference_volume",
            "q_perimeter",
            "apex_perimeter",
        )
        _emit_csv(
            out,
            "spiked_cone.csv",
            manifest,
            columns,
            [[_fmt(getattr(rep, c)) for c in columns]],
        )
        print(f"spike apex link: {_g(rep.theta_p)}")
        print(f"q link 2*theta_p: {_g(rep.q_link)}")
        print(f"cone point link |K-hat|: {_g(rep.apex_link)}")
        print(f"hypercube vertex link: {_g(rep.hypercube_link)}")
        print(f"q beats cone point: {_fmt(rep.q_wins)}")
    else:  # cube-competitors
        _require_points(args)
        if not (0.0 < args.vmin < math.inf and 0.0 < args.vmax < math.inf):
            raise VolumeOutOfRange("need finite positive vmin and vmax")
        grid = np.geomspace(args.vmin, args.vmax, args.points)
        reports = competitor_table(grid)
        names = [e.name for e in reports[0].entries]
        rows = []
        for rep in reports:
            row = [_fmt(rep.volume)]
            row.extend(
                _fmt(e.perimeter) if e.valid else "" for e in rep.entries
            )
            row.append(rep.winner.name)
            rows.append(row)
        _emit_csv(
            out,
            "competitors.csv",
            manifest,
            ["volume"] + [n.replace("-", "_") for n in names] + ["winner"],
            rows,
        )
        print(f"rows: {len(rows)}")
        for lo, hi, was, now in winner_crossovers(reports):
            print(f"winner changes in ({_g(lo)}, {_g(hi)}): {was} -> {now}")
        if args.svg:
            curves = []
            for i, name in enumerate(names):
                vs = [r.volume for r in reports if r.entries[i].valid]
                ps = [
                    r.entries[i].perimeter for r in reports if r.entries[i].valid
                ]
                if vs:
                    curves.append((name, np.array(vs), np.array(ps)))
            _emit_svg_loglog(
                out, "competitors.svg", manifest, curves, x_label="V", y_label="P"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

#: flags that several commands share; every command takes --out and only the
#: others its ``_cmd_*`` function reads
_SHARED_FLAGS = {
    "--out": dict(default="./out", help="artifact directory"),
    "--polytope": dict(help="builtin shape name (%s) or path to a polytope JSON "
                       "document" % ", ".join(sorted(BUILTIN_SHAPES))),
    "--seed": dict(type=int, default=0, help="RNG seed"),
    "--svg": dict(action="store_true", help="also write SVG plots"),
    "--timings": dict(action="store_true", help="print seconds per stage to stderr"),
}


def _add_command(sub, name: str, summary: str, *shared: str):
    p = sub.add_parser(name, help=summary)
    for flag in ("--out",) + shared:
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyperim",
        description="perimeter-minimizing regions on polytope surfaces and cones",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "analyze", "vertex cone analysis", "--polytope", "--timings")
    p.set_defaults(func=_cmd_analyze)

    p = _add_command(sub, "slice", "simplex slab slicing", "--svg")
    p.add_argument("--n", type=int, required=True, help="simplex dimension")
    p.add_argument("--N", type=int, required=True, help="slices per direction")
    p.set_defaults(func=_cmd_slice)

    p = _add_command(sub, "smooth", "mollified gauge body", "--polytope", "--seed")
    p.add_argument("--eps", type=float, required=True, help="mollification radius")
    p.add_argument(
        "--dirs", type=int, default=192, help="approximate boundary direction count"
    )
    p.set_defaults(func=_cmd_smooth)

    p = _add_command(sub, "profile", "isoperimetric profiles", "--svg")
    p.add_argument("--model", choices=("euclidean", "sphere", "cone"), required=True)
    p.add_argument("--n", type=int, required=True, help="manifold dimension")
    p.add_argument("--omega", type=float, help="cone link measure")
    p.add_argument("--vmin", type=float, required=True)
    p.add_argument("--vmax", type=float, required=True)
    p.add_argument("--points", type=int, default=256)
    p.set_defaults(func=_cmd_profile)

    p = _add_command(
        sub, "solve", "discrete minimization", "--polytope", "--seed", "--timings"
    )
    p.add_argument("--volume", type=float, required=True, help="target volume")
    p.add_argument("--level", type=int, default=4, help="subdivision level")
    p.add_argument("--iters", type=int, default=200_000)
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gallery", help="competitor exhibits")
    p.set_defaults(func=_cmd_gallery)
    exhibits = p.add_subparsers(dest="exhibit", required=True)
    e = _add_command(exhibits, "double-pyramid", "double pyramid ball areas")
    e.add_argument("--theta", type=float, default=0.5, help="apex link")
    e.add_argument("--volume", type=float, default=1e-3, help="comparison volume")
    e.add_argument("--base-link", type=float, default=None)
    e = _add_command(exhibits, "spiked-cone", "spiked cone links")
    e.add_argument(
        "--half-angle", type=float, default=5.0, help="spike half-angle in degrees"
    )
    e.add_argument("--spike-height", type=float, default=3.0)
    e.add_argument("--volume", type=float, default=1e-3, help="comparison volume")
    e = _add_command(exhibits, "cube-competitors", "cube competitors", "--svg")
    e.add_argument("--vmin", type=float, default=0.01)
    e.add_argument("--vmax", type=float, default=5.99)
    e.add_argument("--points", type=int, default=120)
    return parser


def dispatch(argv: list[str]) -> int:
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"polyperim: unknown command '{argv[0]}'", file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"--out {out}: {exc.strerror}") from None
        return args.func(args, out)
    except ValidationError as exc:
        print(f"polyperim: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"polyperim: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"polyperim: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
