"""Batch experiment harness: load, predict, re-rank over a grid, report.

A sweep always measures the no-post-processing baseline first, then one
grid point per l (random) or theta (greedy). Outputs are deterministic for
a fixed config and seed: results.csv, one scatter file per disparity
metric (aggregate diversity on x), and optional per-user and SVG files.
Grid points share one immutable ScoreGraph and are evaluated in grid order.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .dataset import candidate_sets, load_ratings
from .errors import InvalidInputError
from .metrics import DisparityReport, disparity_report, write_per_user_csv, write_results_csv
from .predictors import (
    KnnParams,
    NmfParams,
    load_score_cache,
    predict_knn,
    predict_nmf,
    save_score_cache,
)
from .reranking import GreedyParams, RandomParams, greedy_rerank, random_rerank, rank_order, top_k

PREDICTORS = ("knn", "nmf")
POSTS = ("none", "random", "greedy")


@dataclass(frozen=True)
class SweepConfig:
    data: Path = Path("u.data")
    predictor: str = "knn"
    post: str = "none"
    k: int = 5
    ell: tuple[int, ...] = (10, 50, 100, 500)
    theta: tuple[int, ...] = (10, 100, 200, 500, 1000)
    threshold: float = 3.5
    seed: int = 0
    out: Path = Path("results")
    cache: bool = False
    per_user: bool = False
    svg: bool = False
    knn_neighbors: int = 40
    knn_min_overlap: int = 1
    nmf_factors: int = 15
    nmf_epochs: int = 50

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not _has_type_of(value, field.default):
                kind = _KINDS[type(field.default)]
                raise InvalidInputError(f"config key {field.name!r} expects {kind}, got {value!r}")
        if self.predictor not in PREDICTORS:
            raise InvalidInputError(f"unknown predictor {self.predictor!r}")
        if self.post not in POSTS:
            raise InvalidInputError(f"unknown post-processor {self.post!r}")
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if self.post == "random" and not self.ell:
            raise InvalidInputError("ell grid is empty but post=random selected")
        if self.post == "greedy" and not self.theta:
            raise InvalidInputError("theta grid is empty but post=greedy selected")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")
        # build every parameter the run will use, so a bad value fails before the fit
        _predictor(self)
        for ell in self.ell if self.post == "random" else ():
            RandomParams(ell=ell, seed=self.seed)
            if ell < self.k:
                raise InvalidInputError(f"ell={ell} must be >= k={self.k}")
        for theta in self.theta if self.post == "greedy" else ():
            GreedyParams(theta=theta, threshold=self.threshold)


_DEFAULTS = {f.name: f.default for f in fields(SweepConfig)}
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", tuple: "a tuple of integers",
          str: "a string", type(Path()): "a path"}  # a field's default type, as messages name it
_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
             **dict.fromkeys(("false", "0", "no", "off"), False)}


def _has_type_of(value, default) -> bool:
    """Whether value may stand in a field with this default: a bool is not an int."""
    if isinstance(default, tuple):
        return type(value) is tuple and all(type(v) is int for v in value)
    return type(value) in ((int, float) if type(default) is float else (type(default),))


def parse_number(text: str, kind: type = int):
    """kind(text), for ASCII text without '_' only.

    int and float alone also read digit separators and non-ASCII digits, so
    '1_0', '٣' and '３.5' would silently stand for 10, 3 and 3.5.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid {kind.__name__} value: {text!r}")
    return kind(text)


def parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(parse_number(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise InvalidInputError(f"grid must be comma-separated integers, got {text!r}") from None


def _coerce(key: str, value: str):
    """Convert a config file value, a flag or a string keyword to the type of the field's default."""
    kind = type(_DEFAULTS[key])
    if kind is tuple:
        return parse_grid(value)
    try:
        if kind is bool:
            return _BOOLEANS[value.strip().lower()]
        if issubclass(kind, Path) and not value.strip():  # Path("") is the working directory
            raise ValueError
        return parse_number(value, kind) if kind in (int, float) else kind(value)
    except (KeyError, ValueError):
        raise InvalidInputError(f"config key {key!r} expects {_KINDS[kind]}, got {value!r}") from None


# key = "value" or 'value', then at most a comment
_QUOTED = re.compile(r"""(?P<key>[^#=]*)=\s*(?P<quote>["'])(?P<value>.*?)(?P=quote)\s*(?:#.*)?""")


def read_config_file(path: str | Path) -> dict:
    """Parse a ``key = value`` config file into SweepConfig field overrides.

    Each key is a SweepConfig field name, given at most once. Blank lines and
    ``#`` comments are ignored, but a ``#`` inside a quoted value is kept;
    grids are comma-separated.
    """
    overrides: dict = {}
    first_lines: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: config file is not UTF-8 text: {exc}") from None
    for line_no, raw in enumerate(lines, start=1):
        quoted = _QUOTED.fullmatch(raw.strip())
        if quoted:  # a '#' between the quotes is part of the value
            key, value = quoted["key"], quoted["value"]
        else:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            value = value.strip().strip("\"'")
        key = key.strip()
        if key not in _DEFAULTS:
            raise InvalidInputError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in first_lines:
            raise InvalidInputError(f"{path}:{line_no}: config key {key!r} repeats line {first_lines[key]}")
        first_lines[key] = line_no
        overrides[key] = _coerce(key, value)
    return overrides


def build_config(file_path: str | Path | None = None, **overrides) -> SweepConfig:
    """Defaults, then config file values, then explicit overrides.

    A string override is read as a config file value is (out="results" gives a
    Path, k="3" an int); any other override must have its field's type.
    """
    settings = read_config_file(file_path) if file_path is not None else {}
    given = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(given) - set(_DEFAULTS)
    if unknown:
        raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
    settings.update({k: _coerce(k, v) if isinstance(v, str) else v for k, v in given.items()})
    return SweepConfig(**settings)


def _predictor(cfg: SweepConfig):
    if cfg.predictor == "knn":
        return predict_knn, KnnParams(cfg.knn_neighbors, cfg.knn_min_overlap)
    return predict_nmf, NmfParams(cfg.nmf_factors, cfg.nmf_epochs, cfg.seed)


def _obtain_scores(cfg: SweepConfig, dataset):
    predict, params = _predictor(cfg)
    if not cfg.cache:
        return predict(dataset, params)
    key = hashlib.sha256(f"{params.tag()}\n{dataset.fingerprint()}".encode()).hexdigest()[:16]
    cache_path = cfg.out / f"scores_{cfg.predictor}_{key}.npy"
    if cache_path.exists():
        return load_score_cache(cache_path, dataset)
    graph = predict(dataset, params)
    save_score_cache(graph, path=cache_path)
    return graph


def run_sweep(cfg: SweepConfig) -> list[DisparityReport]:
    """Execute the configured sweep and write all output files.

    Returns the reports in output order: baseline first, then grid order.
    """
    dataset = load_ratings(cfg.data)
    candidate_sets(dataset, min_size=cfg.k)  # a user short of k candidates fails before the fit
    cfg.out.mkdir(parents=True, exist_ok=True)  # a rejected input leaves no directory behind
    graph = _obtain_scores(cfg, dataset)
    top = top_k(graph, cfg.k)
    if cfg.post == "random":  # one order to depth max(l), shared by every l
        ranked = rank_order(graph, min(max(cfg.ell), graph.n_items))

    grid = {"none": (), "random": cfg.ell, "greedy": cfg.theta}[cfg.post]
    reports = []
    for post, param in [("none", 0), *((cfg.post, value) for value in grid)]:
        recs, achieved = top, None
        if post == "random":
            recs = random_rerank(graph, ranked, RandomParams(ell=param, seed=cfg.seed), cfg.k)
        elif post == "greedy":
            result = greedy_rerank(graph, top, GreedyParams(theta=param, threshold=cfg.threshold))
            recs, achieved = result.recommendations, result.achieved_increase
        reports.append(
            disparity_report(
                graph, recs, top, predictor=cfg.predictor, post=post, param=param, achieved=achieved
            )
        )

    write_results_csv(reports, cfg.out / "results.csv")
    emit_plot_data(reports, cfg.out, svg=cfg.svg)
    if cfg.per_user:
        for report in reports:
            name = f"per_user__{report.post}__{report.param}.csv"
            write_per_user_csv(report, cfg.out / name, dataset)
    return reports


_METRICS = (
    ("score_disparity", lambda r: r.score_disparity),
    ("recommendation_disparity", lambda r: r.recommendation_disparity),
)


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
    for metric_name, metric in _METRICS:
        points = sorted(
            ((r.aggregate_diversity, metric(r), r.post == "none") for r in reports),
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
