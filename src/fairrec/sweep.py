"""Batch experiment harness: load, predict, re-rank over a grid, report.

A sweep always measures the no-post-processing baseline first, then one
grid point per l (random) or theta (greedy). Outputs are deterministic for
a fixed config and seed: results.csv, one scatter file per disparity
metric (aggregate diversity on x), and optional per-user and SVG files.
Grid points share one immutable ScoreGraph and are evaluated in grid order.
Random's lists come from one blocked pass over the whole l grid, Greedy's
from one walk to the largest theta, cut at every other theta.

Settings come from defaults, a ``key = value`` file whose every line has one
form, and keywords or flags; each text value is read by its field's
annotation (``errors.FIELD_KINDS``). At DEBUG, ``run_sweep`` logs each
stage's wall time and peak RSS on this module's logger, never into the
output directory.
"""

from __future__ import annotations

import hashlib
import logging
import re
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .dataset import candidate_sets, load_ratings, require_candidates
from .errors import FIELD_KINDS, InvalidInputError, NonNegativeInt, PositiveInt, Stars, check_field_types
from .metrics import DisparityReport, disparity_report, write_per_user_csv, write_results_csv
from .predictors import (
    KnnParams,
    NmfParams,
    load_score_cache,
    predict_knn,
    predict_nmf,
    save_score_cache,
)
from .reranking import GreedyParams, RandomParams, greedy_rerank, random_rerank, top_k

logger = logging.getLogger(__name__)

PREDICTORS = ("knn", "nmf")
POSTS = ("none", "random", "greedy")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep's settings, checked when built.

    Each field's annotation gives its type and range, checked whatever
    predictor or post-processor runs; a field that feeds a params field
    carries that field's annotation, so a config that builds always builds
    its params. The rules between fields apply only to the post-processor
    that uses them: a non-empty grid, and every l >= k for Random.
    """

    data: Path = Path("u.data")
    predictor: str = "knn"
    post: str = "none"
    k: PositiveInt = 5
    ell: tuple[PositiveInt, ...] = (10, 50, 100, 500)
    theta: tuple[NonNegativeInt, ...] = (10, 100, 200, 500, 1000)
    threshold: Stars = 3.5
    seed: NonNegativeInt = 0
    out: Path = Path("results")
    cache: bool = False
    per_user: bool = False
    svg: bool = False
    knn_neighbors: PositiveInt = 40
    knn_min_overlap: PositiveInt = 1
    nmf_factors: PositiveInt = 15
    nmf_epochs: NonNegativeInt = 50

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.predictor not in PREDICTORS:
            raise InvalidInputError(f"unknown predictor {self.predictor!r}")
        if self.post not in POSTS:
            raise InvalidInputError(f"unknown post-processor {self.post!r}")
        grid = {"random": "ell", "greedy": "theta"}.get(self.post)
        if grid and not getattr(self, grid):
            raise InvalidInputError(f"{grid} grid is empty but post={self.post} selected")
        for ell in self.ell if self.post == "random" else ():
            if ell < self.k:
                raise InvalidInputError(f"ell={ell} must be >= k={self.k}")


_FIELDS = {f.name: f for f in fields(SweepConfig)}


def _coerce(key: str, value: str):
    """Read a config file value, a flag or a string keyword with the reader of its field's annotation."""
    _, noun, read = FIELD_KINDS[_FIELDS[key].type]
    try:
        return read(value)
    except (KeyError, ValueError):
        raise InvalidInputError(f"config key {key!r} expects {noun}, got {value!r}") from None


# blank, a comment, or key = value then at most a comment; the value is bare
# (no quote at either end, no '#') or between matching quotes, which keep a '#'
_LINE = re.compile(r"""\s*(?:(?P<key>[^#=]*)=\s*(?:(?P<quote>["'])(?P<quoted>.*?)(?P=quote)"""
                   r"""|(?P<bare>(?:[^\s"'#](?:[^#]*[^\s"'#])?)?))\s*)?(?:#.*)?""")


def read_config_file(path: str | Path) -> dict:
    """Parse a ``key = value`` config file into SweepConfig field overrides.

    Each key is a SweepConfig field name, given at most once. Blank lines and
    ``#`` comments are ignored. A value is bare, or between matching quotes
    that keep a ``#``, with at most a comment after it; any other line is
    rejected. Grids are comma-separated.
    """
    overrides: dict = {}
    first_lines: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")  # a byte-order mark is not part of a key
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: config file is not UTF-8 text: {exc}") from None
    for line_no, raw in enumerate(lines, start=1):
        line = _LINE.fullmatch(raw)
        if not line:
            raise InvalidInputError(f"{path}:{line_no}: expected 'key = value'")
        if line["key"] is None:  # blank or a comment
            continue
        key = line["key"].strip()
        if key not in _FIELDS:
            raise InvalidInputError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in first_lines:
            raise InvalidInputError(f"{path}:{line_no}: config key {key!r} repeats line {first_lines[key]}")
        first_lines[key] = line_no
        overrides[key] = _coerce(key, line["bare"] if line["quote"] is None else line["quoted"])
    return overrides


def build_config(file_path: str | Path | None = None, **overrides) -> SweepConfig:
    """Defaults, then config file values, then explicit overrides.

    A string override is read as a config file value is (out="results" gives a
    Path, k="3" an int); any other override must have its field's type.
    """
    settings = read_config_file(file_path) if file_path is not None else {}
    given = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(given) - set(_FIELDS)
    if unknown:
        raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
    settings.update({k: _coerce(k, v) if isinstance(v, str) else v for k, v in given.items()})
    return SweepConfig(**settings)


def _obtain_scores(cfg: SweepConfig, dataset):
    predict, params = ((predict_knn, KnnParams(cfg.knn_neighbors, cfg.knn_min_overlap)) if cfg.predictor == "knn"
                       else (predict_nmf, NmfParams(cfg.nmf_factors, cfg.nmf_epochs, cfg.seed)))
    if not cfg.cache:
        return predict(dataset, params)
    # the fit is named by every field of its params, so no field can be left out of the key
    fit = f"{cfg.predictor}({','.join(f'{f.name}={getattr(params, f.name)}' for f in fields(params))})"
    key = hashlib.sha256(f"{fit}\n{dataset.fingerprint()}".encode()).hexdigest()[:16]
    cache_path = cfg.out / f"scores_{cfg.predictor}_{key}.npy"
    if cache_path.exists():
        return load_score_cache(cache_path, dataset)
    graph = predict(dataset, params)
    save_score_cache(graph, path=cache_path)
    return graph


def _log_stage(marks: list[float], stage: str) -> None:
    """At DEBUG, mark the time and log the stage's wall seconds since the last mark and the peak RSS so far.

    On Linux the peak is ``VmHWM``, this process's own: Linux carries
    ``ru_maxrss`` across ``exec``, so that reads a larger parent's peak.
    """
    if logger.isEnabledFor(logging.DEBUG):
        marks.append(time.perf_counter())
        try:  # kB, as ru_maxrss on Linux
            peak = int(re.search(rb"VmHWM:\s*(\d+)", Path("/proc/self/status").read_bytes())[1]) / (1 << 10)
        except OSError:  # no /proc: not Linux
            import resource  # POSIX only, so imported only when a stage is logged

            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
        logger.debug("run_sweep: %s: %.3f s, peak RSS %.1f MB", stage, marks[-1] - marks[-2], peak)


def run_sweep(cfg: SweepConfig) -> list[DisparityReport]:
    """Execute the configured sweep and write all output files.

    Returns the reports in output order: baseline first, then grid order.
    Every grid point's lists are drawn in the order stage with top-k:
    Random's for every l in one call, Greedy's from one ``greedy_rerank``
    call per theta: the largest theta's walks, and every other theta's is
    given that walk and cut from it. So greedy logs one counter line per
    grid point, the largest theta's (the walk's own) first, then the
    others' in grid order. Under DEBUG, each
    stage (read, scores, order, each grid point's report, write) logs its
    wall time and the peak RSS so far on ``fairrec.sweep``.
    """
    marks = [time.perf_counter()]
    dataset = load_ratings(cfg.data)
    # a user short of k candidates fails before the fit
    require_candidates(candidate_sets(dataset).sum(axis=1), dataset.user_ids, cfg.k)
    _log_stage(marks, "read")
    cfg.out.mkdir(parents=True, exist_ok=True)  # a rejected input leaves no directory behind
    graph = _obtain_scores(cfg, dataset)
    _log_stage(marks, "scores")
    top = top_k(graph, cfg.k)
    points = [("none", 0, top, None)]  # (post, param, lists, achieved increase) in output order
    if cfg.post == "random":  # one blocked pass draws every l's lists
        drawn = random_rerank(graph, RandomParams(ell=cfg.ell, seed=cfg.seed), cfg.k)
        points += [("random", ell, lists, None) for ell, lists in zip(cfg.ell, drawn)]
    elif cfg.post == "greedy":  # one walk from the top-k lists to the largest theta, cut at every other point
        longest = cfg.theta.index(max(cfg.theta))  # that point's call walks; every other point's is cut from its walk
        walked = greedy_rerank(graph, top, GreedyParams(theta=cfg.theta[longest], threshold=cfg.threshold))
        for n, theta in enumerate(cfg.theta):
            params = GreedyParams(theta=theta, threshold=cfg.threshold)
            result = walked if n == longest else greedy_rerank(graph, top, params, walk=walked.walk)
            points.append(("greedy", theta, result.recommendations, result.achieved_increase))
    _log_stage(marks, "order")

    reports = []
    for post, param, recs, achieved in points:
        reports.append(
            disparity_report(
                graph, recs, top, predictor=cfg.predictor, post=post, param=param, achieved=achieved
            )
        )
        _log_stage(marks, f"{post} {param}")

    write_results_csv(reports, cfg.out / "results.csv")
    emit_plot_data(reports, cfg.out, svg=cfg.svg)
    if cfg.per_user:
        for report in reports:
            name = f"per_user__{report.post}__{report.param}.csv"
            write_per_user_csv(report, cfg.out / name, dataset)
    _log_stage(marks, "write")
    return reports


# the DisparityReport fields plotted against aggregate diversity; each names its file and header
_METRICS = ("score_disparity", "recommendation_disparity")


def emit_plot_data(reports: list[DisparityReport], output_dir: str | Path, svg: bool = False) -> list[Path]:
    """Write scatter data (and optional SVG) per disparity metric.

    The reports are one sweep's: one predictor, the baseline and one
    post-processor. Each metric's file holds two numeric columns, aggregate
    diversity then disparity, sorted by the first column, with the baseline
    row flagged in a comment. Byte-stable for equal reports.
    """
    if not reports:
        raise InvalidInputError("no reports to plot")
    predictor = reports[0].predictor
    post = next((r.post for r in reports if r.post != "none"), "none")
    if any(r.predictor != predictor or r.post not in ("none", post) for r in reports):
        raise InvalidInputError("plot data takes one sweep: one predictor, one post-processor")
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    written: list[Path] = []
    for metric_name in _METRICS:
        points = sorted(
            ((r.aggregate_diversity, getattr(r, metric_name), r.post == "none") for r in reports),
            key=lambda p: (p[0], p[1]),
        )
        path = output_dir / f"{post}__{predictor}__{metric_name}.dat"
        lines = [
            f"# {predictor} {post}: aggregate diversity vs {metric_name}\n",
            "# columns: agg_div  disparity\n",
        ]
        for x, y, is_baseline in points:
            if is_baseline:
                lines.append("# next row is the baseline (no post-processing)\n")
            lines.append(f"{x:.6f}  {y:.6f}\n")
        path.write_text("".join(lines), encoding="ascii")
        written.append(path)
        if svg:
            svg_path = path.with_suffix(".svg")
            _write_scatter_svg(points, svg_path, f"{predictor} / {post}", metric_name)
            written.append(svg_path)
    return written


def _write_scatter_svg(points, path: Path, title: str, metric_name: str) -> None:
    width, height, margin = 480, 360, 50
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_max = max(max(xs), 1e-9) * 1.05
    y_max = max(max(ys), 1e-9) * 1.15

    def sx(x: float) -> float:
        return margin + (width - 2 * margin) * x / x_max

    def sy(y: float) -> float:
        return height - margin - (height - 2 * margin) * y / y_max

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n',
        f'<rect width="{width}" height="{height}" fill="white"/>\n',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="13">{title}</text>\n',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="11">aggregate diversity (max {x_max:.4f})</text>\n',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 14 {height / 2:.1f})">{metric_name} (max {y_max:.4f})</text>\n',
    ]
    for x, y, is_baseline in points:
        if is_baseline:
            parts.append(
                f'<rect x="{sx(x) - 4:.2f}" y="{sy(y) - 4:.2f}" width="8" height="8" fill="black"/>\n'
            )
        else:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="steelblue"/>\n')
    parts.append("</svg>\n")
    path.write_text("".join(parts), encoding="ascii")
