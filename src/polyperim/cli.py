"""Command-line front end.

Subcommands map one-to-one onto the library modules:

* ``analyze``  — per-vertex link measures and apex ball profiles
* ``slice``    — simplex slab slicing and congruence classification
* ``smooth``   — mollified gauge body of a convex polytope
* ``profile``  — closed-form isoperimetric profile tables
* ``solve``    — discrete perimeter minimization on a 3-polytope's surface mesh
* ``gallery``  — analytic competitor exhibits

Every CSV artifact begins with two comment lines carrying the run manifest
(command, flags, version, input digest) and its sha256, so a consumer can
check which invocation produced a file.  Each command builds one record (a
dict) per row; the header line is the records' keys, so a column's name and
its place are written once.  A command accepts only the flags it reads, so
the manifest's flags are those that shape the output.  Identical invocations
produce byte-identical artifacts, including the optional SVG plots; all
floats are printed with ``%.12g`` and negative zero is normalized.

``solve`` also writes ``restarts.csv``, one row per restart: its start (a
vertex ball, ``warm:<vertex index>``, or ``cold``), its polished perimeter
(empty when no finalist was feasible) and its move counts.

``analyze``, ``smooth`` and ``solve`` take ``--timings``, which prints the
seconds of each stage (build, subdivide, cones, minimize; body, probe, hull
for ``smooth``), for ``solve`` the minimize throughput (iterations times
restarts per second of the whole minimize stage: tables, walks and polish),
and then the peak resident memory of the process to stderr.
The flag is left out of the manifest, so artifacts are the same with and
without it.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 64 unknown
command.  A run that exits 2 or 3 names the error's class on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from functools import cache, partial
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from . import __version__, shapes
from .cones import rank_by_link, vertex_cones
from .errors import (BadDocument, NumericalError, PolyperimError, ValidationError, checked_int,
                     checked_real)
from .gallery import (
    SPIKE_MAX_HALF_ANGLE,
    cube_competitors,
    double_pyramid_report,
    spike_link_from_half_angle,
    spiked_cone_report,
    winner_crossovers,
)
from .mesh import subdivide
from .polytope import Polytope, polytope_measure
from .profiles import cone_profile, euclidean_profile, sphere_profile, volume_grid
from .slicing import classify_pieces, enumerate_pieces
from .smoothing import convexity_probe, smoothed_body
from .solver import anisotropy_bound, default_config, minimize_perimeter, vertex_ball_region

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

#: most boundary directions ``smooth --dirs`` may ask for
MAX_DIRS = 100_000

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


def _manifest(args: argparse.Namespace, input_digest: str = "-") -> str:
    """The run manifest as canonical JSON."""
    # --out is a pure artifact sink and --timings only writes to stderr:
    # excluding them keeps outputs byte-identical with or without them.
    flags = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "out", "func", "timings")
    }
    doc = {
        "command": args.command,
        "flags": flags,
        "input_digest": input_digest,
        "version": __version__,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _digest(manifest: str) -> str:
    return hashlib.sha256(manifest.encode("utf-8")).hexdigest()


def _write(out: Path, name: str, lines: list[str]) -> Path:
    """Write an artifact, creating --out on the first write, so a rejected
    run leaves nothing behind; a --out that cannot be written exits 2."""
    path = out / name
    try:
        out.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"--out {out}: {exc.strerror}") from None
    return path


def _emit_csv(out: Path, name: str, manifest: str, records: list[dict]) -> Path:
    """Write one row per record under the manifest lines.  The records share
    their keys, in one order: the first record's keys are the header, and
    every cell goes through ``_fmt``."""
    lines = [
        f"# manifest {manifest}",
        f"# manifest-digest sha256:{_digest(manifest)}",
        ",".join(records[0]),
    ]
    lines.extend(",".join(map(_fmt, record.values())) for record in records)
    return _write(out, name, lines)


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
    """Wall seconds per named stage and the peak resident memory, printed
    to stderr under --timings.  ``solve`` also reports its minimize
    throughput: iterations times restarts over the seconds of the whole
    minimize stage (tables, walks and polish)."""

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

    def report(self, iterations: int | None = None) -> None:
        if self.enabled:
            for name, seconds in self.seconds.items():
                print(f"timing {name}: {seconds:.6f} s", file=sys.stderr)
            if iterations is not None:
                rate = iterations / self.seconds["minimize"]
                note = "(tables, walks and polish)"
                print(f"minimize throughput: {rate:.0f} iterations/s {note}", file=sys.stderr)
            # resource is Unix-only, so only --timings needs it; ru_maxrss
            # counts KiB on Linux and bytes on macOS
            import resource

            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            peak /= 2**20 if sys.platform == "darwin" else 2**10
            print(f"peak memory: {peak:.1f} MiB", file=sys.stderr)


# ---------------------------------------------------------------------------
# SVG plotting (hand-rolled for byte determinism)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 720, 540
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 80, 24, 24, 56


def _svg_open(manifest: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f"<!-- manifest-digest sha256:{_digest(manifest)} -->",
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]


def _emit_svg_loglog(
    out: Path,
    name: str,
    manifest: str,
    curves,
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
        "log V</text>"
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
    return _write(out, name, lines)


def _emit_svg_pieces(out: Path, name: str, manifest: str, pieces) -> Path:
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
    return _write(out, name, lines)


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
    # apex balls: A(V) = c * V^t with c the unit-volume perimeter
    n = poly.surface_dim
    records = [
        {
            "vertex_index": cone.vertex_index,
            "omega": cone.link_volume,
            "r_max": cone.r_max,
            "c": cone_profile(cone.link_volume, n, 1.0),
            "t": (n - 1.0) / n,
            "valid_volume_max": cone.valid_volume_max,
            "is_optimal": cone.vertex_index == best_index,
        }
        for cone in cones
    ]
    _emit_csv(out, "analysis.csv", manifest, records)
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
    if args.svg and args.n != 2:
        raise ValidationError(f"--svg plots only --n 2 slices, got --n {args.n}")
    manifest = _manifest(args)
    pieces = enumerate_pieces(args.n, args.N)
    classes = classify_pieces(pieces)
    rep_by_level = {c.level: c.representative for c in classes}
    records = [
        {
            "k": "|".join(str(k) for k in p.index),
            "shape_class": p.level,
            "volume": p.volume,
            "class_representative": "|".join(str(k) for k in rep_by_level[p.level].index),
        }
        for p in pieces
    ]
    _emit_csv(out, "pieces.csv", manifest, records)
    print(f"pieces: {len(pieces)}")
    print(f"classes: {len(classes)}")
    verdict = "PASS" if len(classes) <= args.n else "FAIL"
    print(f"classes <= {args.n}: {verdict}")
    if args.svg:
        _emit_svg_pieces(out, "pieces.svg", manifest, pieces)
    return EXIT_OK


def _cmd_smooth(args: argparse.Namespace, out: Path) -> int:
    checked_int(args.dirs, "--dirs", 1, MAX_DIRS)
    poly, digest = _load_polytope_arg(args)
    manifest = _manifest(args, digest)
    d = poly.dim
    if d == 2:
        resolution = max(4, (args.dirs + 1) // 2)
    else:
        resolution = max(4, int(round(math.sqrt(args.dirs / 2.0))))
    timer = _Stages(args.timings)
    with timer("body"):
        body = smoothed_body(poly, args.eps, resolution=resolution)
    # up to MAX_DIRS rows: name the columns once and zip them onto each row
    columns = [f"u{i + 1}" for i in range(d)] + ["rho_plain", "rho_smooth"]
    records = [
        dict(zip(columns, (*u, r0, re)))
        for u, r0, re in zip(body.directions, body.plain_radii(), body.radii)
    ]
    with timer("probe"):
        report = convexity_probe(body, trials=4096, seed=args.seed)
    # after the probe, so a rejected --seed writes nothing
    _emit_csv(out, "boundary.csv", manifest, records)
    vol_poly = polytope_measure(poly.vertices)
    with timer("hull"):
        # the body is convex, so the hull of its boundary samples lies inside it
        vol_hull = ConvexHull(body.boundary_points).volume
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
    print(f"kernel mass error: {_g(body.kernel.mass_error)}")
    timer.report()
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace, out: Path) -> int:
    if args.omega is not None and args.model != "cone":
        raise ValidationError(
            f"--omega applies only to --model cone, got --model {args.model}"
        )
    manifest = _manifest(args)
    if args.model == "cone":
        if args.omega is None:
            raise ValidationError("--model cone requires --omega")
        label = f"cone-{args.n}-w{args.omega:.6g}"
        fn = partial(cone_profile, args.omega, args.n)
    elif args.model == "sphere":
        label, fn = f"sphere-{args.n}", partial(sphere_profile, args.n)
    else:
        label, fn = f"euclidean-{args.n}", partial(euclidean_profile, args.n)
    volumes = volume_grid(args.vmin, args.vmax, args.points)
    areas = np.array([fn(v) for v in volumes])
    records = [{"V": v, "A": a} for v, a in zip(volumes, areas)]
    _emit_csv(out, "profile.csv", manifest, records)
    print(f"model: {label}")
    print(f"rows: {len(records)}")
    if args.svg:
        _emit_svg_loglog(out, "profile.svg", manifest, [(label, volumes, areas)])
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
        warm, starts = [], []
        for cone in ranked:
            if len(warm) >= args.restarts:
                break
            if args.volume <= cone.valid_volume_max:
                warm.append(vertex_ball_region(mesh, cone.vertex_index, args.volume))
                starts.append(f"warm:{cone.vertex_index}")
        result = minimize_perimeter(mesh, args.volume, config, warm_starts=warm)
    _emit_csv(
        out,
        "region.csv",
        manifest,
        [{"triangle_index": t} for t in np.flatnonzero(result.region.mask)],
    )
    summary = {
        "target_volume": args.volume,
        "area": result.area,
        "perimeter": result.perimeter,
        "bound": bound,
        "kappa": kappa,
        "ceiling": kappa * bound,
        "best_restart": result.best_restart,
    }
    _emit_csv(out, "summary.csv", manifest, [summary])
    starts += ["cold"] * (args.restarts - len(warm))
    restarts = [
        {"restart": r, "start": start, "perimeter": p if math.isfinite(p) else "", **asdict(m)}
        for r, (start, p, m) in enumerate(zip(starts, result.restart_perimeters, result.moves))
    ]
    _emit_csv(out, "restarts.csv", manifest, restarts)
    ok = bound - 1e-9 <= result.perimeter <= kappa * bound
    print(f"triangles: {result.region.triangle_count} of {len(mesh.triangles)}")
    print(f"area: {_g(result.area)} (target {_g(args.volume)})")
    print(
        f"perimeter: {_g(result.perimeter)} "
        f"(bound {_g(bound)}, kappa {_g(kappa)}, ceiling {_g(kappa * bound)})"
    )
    # past the star-contained range the bound is not the apex-ball profile
    if args.volume > ranked[0].valid_volume_max:
        print(f"bound check: n/a (volume exceeds {float(ranked[0].valid_volume_max)!r})")
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
    timer.report(config.iterations * config.restarts)
    return EXIT_OK


def _cmd_gallery(args: argparse.Namespace, out: Path) -> int:
    manifest = _manifest(args)
    if args.exhibit == "double-pyramid":
        rep = double_pyramid_report(args.theta, args.volume, args.base_link)
        # the optional base-vertex comparison is only printed
        record = asdict(rep)
        del record["base_link"], record["one_sided_beats_base"]
        _emit_csv(out, "double_pyramid.csv", manifest, [record])
        print(f"ratio: {_g(rep.ratio)} (sqrt(2) = {_g(math.sqrt(2.0))})")
        print("metric ball minimizing: false")
        if rep.one_sided_beats_base is not None:
            print(
                f"one-sided ball beats base-vertex ball: "
                f"{_fmt(rep.one_sided_beats_base)}"
            )
    elif args.exhibit == "spiked-cone":
        widest = math.degrees(SPIKE_MAX_HALF_ANGLE)
        half_angle = checked_real(args.half_angle, "--half-angle", 0.0, widest)
        base = args.spike_height * math.tan(math.radians(half_angle))
        if not 0.0 < base < 0.5:
            raise ValidationError(
                f"--spike-height {args.spike_height} (in cube sides) x tan(--half-angle) "
                f"gives a spike base of circumradius {base:.6g}, outside (0, 1/2)"
            )
        theta_p = spike_link_from_half_angle(math.radians(half_angle))
        rep = spiked_cone_report(
            theta_p,
            spike_height=args.spike_height,
            reference_volume=args.volume,
        )
        _emit_csv(out, "spiked_cone.csv", manifest, [asdict(rep)])
        print(f"spike apex link: {_g(rep.theta_p)}")
        print(f"q link 2*theta_p: {_g(rep.q_link)}")
        print(f"cone point link |K-hat|: {_g(rep.apex_link)}")
        print(f"hypercube vertex link: {_g(rep.hypercube_link)}")
        print(f"q beats cone point: {_fmt(rep.q_wins)}")
    else:  # cube-competitors
        grid = volume_grid(args.vmin, args.vmax, args.points)
        reports = [cube_competitors(float(v)) for v in grid]
        records = [
            {
                "volume": rep.volume,
                **{e.name.replace("-", "_"): e.perimeter if e.valid else "" for e in rep.entries},
                "winner": rep.winner.name,
            }
            for rep in reports
        ]
        _emit_csv(out, "competitors.csv", manifest, records)
        print(f"rows: {len(records)}")
        for lo, hi, was, now in winner_crossovers(reports):
            print(f"winner changes in ({_g(lo)}, {_g(hi)}): {was} -> {now}")
        if args.svg:
            curves = []
            for i, name in enumerate(e.name for e in reports[0].entries):
                vs = [r.volume for r in reports if r.entries[i].valid]
                ps = [
                    r.entries[i].perimeter for r in reports if r.entries[i].valid
                ]
                if vs:
                    curves.append((name, np.array(vs), np.array(ps)))
            _emit_svg_loglog(out, "competitors.svg", manifest, curves, y_label="P")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
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

    p = _add_command(
        sub, "smooth", "mollified gauge body", "--polytope", "--seed", "--timings"
    )
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reads with, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None) and return
    its exit code; the console script and ``python -m polyperim`` call this."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"polyperim: unknown command '{argv[0]}'", file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    args = _parser().parse_args(argv)
    try:
        return args.func(args, Path(args.out))
    except PolyperimError as exc:
        print(f"polyperim: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_VALIDATION
