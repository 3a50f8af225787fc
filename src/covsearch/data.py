"""Dataset ingestion, standardization, and synthetic generators."""

from __future__ import annotations

import csv
import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .gp import Dataset
from .kernels import KernelAst, build_cov_matrix, from_nested

X_SPAN = 10.0

HOLDOUT_MODES = ("extrapolate-tail", "interpolate-middle", "random")

SYNTH_KINDS = ("periodic", "lin_plus_per", "linear", "cp_demo")

# Ground-truth trees behind each synthetic kind.
_SYNTH_SPECS = {
    "periodic": ["PER", 1.4, 3.0],
    "lin_plus_per": ["+", ["LIN", 1.0], ["PER", 1.4, 3.0]],
    "linear": ["LIN", 1.0],
    "cp_demo": ["CP", 5.0, ["C", 4.0], ["PER", 1.4, 3.0]],
}


@dataclass(frozen=True)
class Standardization:
    """Affine maps applied at ingestion, kept so outputs can be undone.

    Inputs are mapped onto [0, 10], outputs to zero mean and unit
    variance.
    """

    x_lo: float
    x_hi: float
    y_mean: float
    y_scale: float

    def x_forward(self, xs: np.ndarray) -> np.ndarray:
        return (np.asarray(xs, dtype=float) - self.x_lo) * (
            X_SPAN / (self.x_hi - self.x_lo)
        )

    def x_back(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(xs, dtype=float) * (
            (self.x_hi - self.x_lo) / X_SPAN
        ) + self.x_lo

    def y_forward(self, ys: np.ndarray) -> np.ndarray:
        return (np.asarray(ys, dtype=float) - self.y_mean) / self.y_scale

    def y_back(self, ys: np.ndarray) -> np.ndarray:
        return np.asarray(ys, dtype=float) * self.y_scale + self.y_mean

    def y_spread_back(self, spread: np.ndarray) -> np.ndarray:
        return np.asarray(spread, dtype=float) * self.y_scale


@dataclass(frozen=True)
class IngestResult:
    """Parsed series plus the transform applied to them, if any."""

    series: tuple[tuple[str, Dataset], ...]
    standardization: Standardization | None

    @property
    def dataset(self) -> Dataset:
        if len(self.series) != 1:
            raise DataError(
                f"expected a single series, file holds {len(self.series)}"
            )
        return self.series[0][1]


def _fit_standardization(all_xs: np.ndarray, all_ys: np.ndarray) -> Standardization:
    x_lo = float(np.min(all_xs))
    x_hi = float(np.max(all_xs))
    if x_hi == x_lo:
        raise DataError("cannot standardize: all inputs are identical")
    y_scale = float(np.std(all_ys))
    if y_scale == 0.0:
        raise DataError("cannot standardize: outputs have zero variance")
    return Standardization(x_lo, x_hi, float(np.mean(all_ys)), y_scale)


def ingest_csv(path, standardize: bool = False) -> IngestResult:
    """Read one or many series from a CSV file.

    The header must be either `x,y` for a single series or
    `series_id,x,y` for several. Any malformed row is an error naming
    its line number. With `standardize`, one shared transform is fitted
    over all rows and applied to every series.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"data file {path} does not exist")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        # Blank rows are skipped; the others keep their line in the file.
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = [cell.strip().lower() for cell in rows[0][1]]
    if header == ["x", "y"]:
        grouped: dict[str, list[tuple[float, float]]] = {"series": []}
        id_col = None
    elif header == ["series_id", "x", "y"]:
        grouped = {}
        id_col = 0
    else:
        raise DataError(
            f"{path}: header must be 'x,y' or 'series_id,x,y', got {rows[0][1]!r}"
        )
    for line_no, row in rows[1:]:
        width = 2 if id_col is None else 3
        if len(row) != width:
            raise DataError(
                f"{path} line {line_no}: expected {width} fields, got {len(row)}"
            )
        try:
            x = float(row[-2])
            y = float(row[-1])
        except ValueError as err:
            raise DataError(f"{path} line {line_no}: {err}") from err
        if not (np.isfinite(x) and np.isfinite(y)):
            raise DataError(f"{path} line {line_no}: non-finite value")
        key = "series" if id_col is None else row[0].strip()
        grouped.setdefault(key, []).append((x, y))
    for name, pairs in grouped.items():
        if not pairs:
            raise DataError(f"{path}: series {name!r} has no rows")
    if not any(grouped.values()):
        raise DataError(f"{path}: no data rows")
    transform = None
    if standardize:
        all_xs = np.array([x for pairs in grouped.values() for x, _ in pairs])
        all_ys = np.array([y for pairs in grouped.values() for _, y in pairs])
        transform = _fit_standardization(all_xs, all_ys)
    series = []
    for name in grouped:
        xs = np.array([x for x, _ in grouped[name]])
        ys = np.array([y for _, y in grouped[name]])
        if transform is not None:
            xs = transform.x_forward(xs)
            ys = transform.y_forward(ys)
        series.append((name, Dataset(xs, ys)))
    return IngestResult(series=tuple(series), standardization=transform)


def write_dataset_csv(path, dataset: Dataset) -> None:
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y"])
        for x, y in zip(dataset.xs, dataset.ys):
            writer.writerow([format(x, ".17g"), format(y, ".17g")])


def synth_ast(kind: str) -> KernelAst:
    """Ground-truth tree used by a synthetic data kind."""
    if kind not in _SYNTH_SPECS:
        raise DataError(f"unknown synthetic kind {kind!r}, want one of {SYNTH_KINDS}")
    return from_nested(_SYNTH_SPECS[kind])


def synth_data(
    kind: str,
    n: int,
    rng: np.random.Generator,
    noise_var: float = 0.1,
) -> Dataset:
    """Draw a noisy GP sample of the named kind on an even grid in [0, 10]."""
    if n < 2:
        raise DataError(f"need at least 2 points, got {n}")
    ast = synth_ast(kind)
    xs = np.linspace(0.0, X_SPAN, n)
    cov = build_cov_matrix(ast, xs)
    cov[np.diag_indices_from(cov)] += 1e-10
    factor = np.linalg.cholesky(cov)
    latent = factor @ rng.standard_normal(n)
    ys = latent + np.sqrt(noise_var) * rng.standard_normal(n)
    return Dataset(xs, ys)


def split_holdout(
    data: Dataset,
    fraction: float,
    mode: str = "extrapolate-tail",
    rng: np.random.Generator | None = None,
) -> tuple[Dataset, Dataset]:
    """Split into train and held-out parts.

    extrapolate-tail holds out the largest inputs, interpolate-middle a
    centered stretch, random a seeded subset. Sorting is stable, so tied
    inputs keep file order.
    """
    if mode not in HOLDOUT_MODES:
        raise DataError(f"unknown holdout mode {mode!r}, want one of {HOLDOUT_MODES}")
    if not 0.0 <= fraction < 1.0:
        raise DataError(f"holdout fraction {fraction} outside [0, 1)")
    n = len(data)
    count = int(round(fraction * n))
    if count == 0:
        return data, Dataset(np.empty(0), np.empty(0))
    if n - count < 1:
        raise DataError("holdout leaves no training data")
    order = np.argsort(data.xs, kind="stable")
    if mode == "extrapolate-tail":
        held = order[n - count :]
    elif mode == "interpolate-middle":
        start = (n - count) // 2
        held = order[start : start + count]
    else:
        if rng is None:
            raise DataError("random holdout needs a generator")
        held = rng.permutation(n)[:count]
    mask = np.zeros(n, dtype=bool)
    mask[held] = True
    train = Dataset(data.xs[~mask], data.ys[~mask])
    hold = Dataset(data.xs[mask], data.ys[mask])
    return train, hold


def airline_dataset() -> Dataset:
    """Monthly airline passenger counts, 1949 through 1960.

    Inputs are decimal years; outputs are raw counts in thousands.
    """
    resource = importlib.resources.files("covsearch").joinpath(
        "datasets/airline.csv"
    )
    with importlib.resources.as_file(resource) as path:
        result = ingest_csv(path)
    return result.dataset
