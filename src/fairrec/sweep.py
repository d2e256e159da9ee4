"""Batch experiment harness: load, predict, re-rank over a grid, report.

A sweep always measures the no-post-processing baseline first, then one
grid point per l (random) or theta (greedy). Outputs are deterministic for
a fixed config and seed: results.csv, one scatter file per disparity
metric (aggregate diversity on x), and optional per-user and SVG files.
Grid points share one immutable ScoreGraph and are evaluated in grid order.
"""

from __future__ import annotations

import hashlib
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
from .reranking import GreedyParams, RandomParams, greedy_rerank, random_rerank, top_k

PREDICTORS = ("knn", "nmf")
POSTS = ("none", "random", "greedy")


@dataclass
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

    def validate(self) -> None:
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


def parse_number(text: str, kind: type = int):
    """kind(text), for ASCII text without '_' only.

    int and float alone also read digit separators and non-ASCII digits, so
    '1_0', '٣' and '３.5' would silently stand for 10, 3 and 3.5.
    """
    text = str(text)
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid {kind.__name__} value: {text!r}")
    return kind(text)


def parse_grid(text: str) -> tuple[int, ...]:
    try:
        values = tuple(parse_number(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise InvalidInputError(f"grid must be comma-separated integers, got {text!r}") from None
    return values


def _coerce(key: str, value: str):
    """Convert a config file value, or a string keyword, to the type of the field's default."""
    kind = type(_DEFAULTS[key])
    if kind is bool:
        lowered = str(value).strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise InvalidInputError(f"config key {key!r} expects a boolean, got {value!r}")
    if kind is tuple:
        return parse_grid(value)
    try:
        return parse_number(value, kind) if kind in (int, float) else kind(value)
    except ValueError:
        if kind is int:
            raise InvalidInputError(f"config key {key!r} expects an integer, got {value!r}") from None
        raise InvalidInputError(f"{key} expects a number, got {value!r}") from None


def read_config_file(path: str | Path) -> dict:
    """Parse a ``key = value`` config file into SweepConfig field overrides.

    Each key is a SweepConfig field name. Blank lines and ``#`` comments are
    ignored; grids are comma-separated.
    """
    overrides: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: config file is not UTF-8 text: {exc}") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip("\"'")
        if key not in _DEFAULTS:
            raise InvalidInputError(f"{path}:{line_no}: unknown config key {key!r}")
        overrides[key] = _coerce(key, value)
    return overrides


def build_config(file_path: str | Path | None = None, **overrides) -> SweepConfig:
    """Defaults, then config file values, then explicit overrides.

    A string override is read as a config file value is: out="results" gives
    a Path and k="3" an int.
    """
    settings = read_config_file(file_path) if file_path is not None else {}
    given = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(given) - set(_DEFAULTS)
    if unknown:
        raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
    settings.update({k: _coerce(k, v) if isinstance(v, str) else v for k, v in given.items()})
    cfg = SweepConfig(**settings)
    cfg.validate()
    return cfg


def _predictor(cfg: SweepConfig):
    if cfg.predictor == "knn":
        return predict_knn, KnnParams(cfg.knn_neighbors, cfg.knn_min_overlap)
    return predict_nmf, NmfParams(cfg.nmf_factors, cfg.nmf_epochs, cfg.seed)


def _obtain_scores(cfg: SweepConfig, dataset, candidates):
    predict, params = _predictor(cfg)
    if not cfg.cache:
        return predict(dataset, candidates, params)
    key = hashlib.sha256(f"{params.tag()}\n{dataset.fingerprint()}".encode()).hexdigest()[:16]
    cache_path = cfg.out / f"scores_{cfg.predictor}_{key}.npy"
    if cache_path.exists():
        return load_score_cache(cache_path, dataset, candidates)
    graph = predict(dataset, candidates, params)
    save_score_cache(graph, dataset, cache_path)
    return graph


def run_sweep(cfg: SweepConfig, quiet: bool = False) -> list[DisparityReport]:
    """Execute the configured sweep and write all output files.

    Returns the reports in output order: baseline first, then grid order.
    """
    cfg.validate()
    cfg.out.mkdir(parents=True, exist_ok=True)
    dataset = load_ratings(cfg.data)
    candidates = candidate_sets(dataset, min_size=cfg.k)
    graph = _obtain_scores(cfg, dataset, candidates)
    top = top_k(graph, cfg.k)

    reports = [
        disparity_report(graph, top, top, predictor=cfg.predictor, post="none", param=0)
    ]
    if cfg.post == "random":
        for ell in cfg.ell:
            recs = random_rerank(graph, RandomParams(ell=ell, seed=cfg.seed), cfg.k)
            reports.append(
                disparity_report(graph, recs, top, predictor=cfg.predictor, post="random", param=ell)
            )
    elif cfg.post == "greedy":
        for theta in cfg.theta:
            result = greedy_rerank(graph, top, GreedyParams(theta=theta, threshold=cfg.threshold))
            reports.append(
                disparity_report(
                    graph,
                    result.recommendations,
                    top,
                    predictor=cfg.predictor,
                    post="greedy",
                    param=theta,
                    achieved=result.achieved_increase,
                )
            )

    write_results_csv(reports, cfg.out / "results.csv")
    emit_plot_data(reports, cfg.out, svg=cfg.svg)
    if cfg.per_user:
        for report in reports:
            name = f"per_user__{report.post}__{report.param}.csv"
            write_per_user_csv(report, cfg.out / name, dataset)
    if not quiet:
        for report in reports:
            print(report.summary())
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
