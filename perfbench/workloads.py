"""The three benchmark workloads: inputs, CLI arguments, move counts and
output checks.

Each workload draws its inputs from the benchmark seed and hands the CLI
only files and `--seed`. Every call of a run gets its own program seed
and its own generated series, both derived from the benchmark seed and
the call's position, so that a run's median spans many chains and data
sets rather than repeating one.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def expect_close(what: str, got, want, rel: float = 1e-9, tol: float | None = None):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    limit = rel * np.maximum(1.0, np.abs(want)) if tol is None else tol
    err = np.abs(got - want)
    if not np.all(err <= limit):
        worst = int(np.argmax(err - limit))
        raise CheckFailed(
            f"{what}: {got.flat[worst]!r} != {want.flat[worst]!r} (index {worst})"
        )


def expect(what: str, condition: bool) -> None:
    if not condition:
        raise CheckFailed(what)


def program_seed(seed: int, call: int) -> int:
    return int(np.random.SeedSequence([seed, call]).generate_state(1)[0])


def data_rng(seed: int, call: int) -> np.random.Generator:
    # The trailing 1 keeps the data's entropy apart from the program seed's.
    return np.random.default_rng([seed, call, 1])


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return {
        name: np.array([float(row[i]) for row in rows[1:]])
        for i, name in enumerate(rows[0])
    }


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])


def write_ini(path: Path, sections: dict[str, dict]) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    path.write_text("\n".join(lines) + "\n")


def per_sample(rng, xs, lengthscale=1.4, period=3.0) -> np.ndarray:
    """Noisy draw from a zero-mean GP with a PER(lengthscale, period) kernel."""
    cov = reference.covariance(["PER", lengthscale, period], xs, xs)
    factor = np.linalg.cholesky(cov + 1e-8 * np.eye(xs.size))
    return factor @ rng.standard_normal(xs.size) + math.sqrt(
        reference.NOISE_VAR
    ) * rng.standard_normal(xs.size)


def lin_sample(rng, xs, centre=1.0) -> np.ndarray:
    """Noisy line through (centre, 0). The slope's size is kept within
    [0.5, 1.5], away from 0, so that every seed's panel holds two clearly
    linear series and the chains' cluster counts vary little by seed."""
    slope = rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0))
    return slope * (xs - centre) + math.sqrt(reference.NOISE_VAR) * rng.standard_normal(
        xs.size
    )


def expect_tree_scores(what, tree, xs, ys, log_likelihood, log_prior=None) -> None:
    """A recorded likelihood (and prior) must match the dense evaluation."""
    want, tol = reference.log_marginal(tree, xs, ys)
    expect_close(f"{what} log_likelihood of {tree}", log_likelihood, want, tol=tol)
    if log_prior is not None:
        expect_close(f"{what} log_prior of {tree}", log_prior, reference.log_prior(tree))


class Workload:
    name = ""
    task = ""
    schedule: dict = {}
    run: dict = {}

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.seed = seed
        self.work = work
        self.config = work / "config.ini"
        write_ini(self.config, {"run": self.run, "schedule": self.schedule})

    def make_data(self, call: int) -> Path:
        """Write call `call`'s input file and keep what the checks need."""
        raise NotImplementedError

    def prepare(self, out: Path, call: int) -> list[str]:
        """Inputs of call `call`, and its CLI arguments. The checks that
        follow apply to the call prepared last."""
        return [
            self.task,
            "--data", str(self.make_data(call)),
            "--config", str(self.config),
            "--seed", str(program_seed(self.seed, call)),
            "--out", str(out),
        ]

    def moves(self, out: Path) -> int:
        raise NotImplementedError

    def check(self, out: Path) -> None:
        """Raise CheckFailed unless the call's output files are right."""
        raise NotImplementedError

    def check_traced(self, captured: dict) -> None:
        """Raise CheckFailed unless the scores kept in memory are right."""
        raise NotImplementedError


class FitAirline(Workload):
    """`fit` on the bundled airline series, several chains, mixed hypers."""

    name = "fit-airline"
    task = "fit"
    schedule = {
        "chains": 4, "sweeps": 8, "hyper_steps": 5, "structure_steps": 10,
        "burn_in": 0.2, "hyper_mode": "mixed",
    }
    run = {"holdout_fraction": 0.2, "holdout_mode": "extrapolate-tail", "probe_count": 200}

    def make_data(self, call: int) -> Path:
        path = self.root / "src" / "covsearch" / "datasets" / "airline.csv"
        raw = read_csv(path)
        self.raw_xs, self.raw_ys = raw["x"], raw["y"]
        xs, ys = reference.standardize(self.raw_xs, self.raw_ys, self.raw_xs, self.raw_ys)
        (self.train_xs, self.train_ys), (self.held_xs, _) = reference.tail_split(
            xs, ys, self.run["holdout_fraction"]
        )
        _, (_, self.held_raw_ys) = reference.tail_split(
            self.raw_xs, self.raw_ys, self.run["holdout_fraction"]
        )
        return path

    def moves(self, out: Path) -> int:
        s = self.schedule
        return s["chains"] * s["sweeps"] * (s["hyper_steps"] + s["structure_steps"])

    def _back(self, mean, var):
        scale = float(np.std(self.raw_ys))
        return mean * scale + float(np.mean(self.raw_ys)), np.sqrt(var) * scale

    def check(self, out: Path) -> None:
        metrics = json.loads((out / "metrics.json").read_text())
        histogram = json.loads((out / "structure_histogram.json").read_text())
        pred = read_csv(out / "predictions.csv")
        s = self.schedule
        recorded = s["chains"] * (s["sweeps"] - math.ceil(s["burn_in"] * s["sweeps"]))
        expect(f"recorded_samples {metrics['recorded_samples']} != {recorded}",
               metrics["recorded_samples"] == recorded)
        counts = {label: v["count"] for label, v in histogram["structures"].items()}
        expect(f"histogram counts sum to {sum(counts.values())}, not {recorded}",
               sum(counts.values()) == recorded == histogram["total_samples"])
        top = min(counts, key=lambda label: (-counts[label], label))
        expect(f"top label {top!r} != map_structure {metrics['map_structure']!r}",
               top == metrics["map_structure"])
        expect(f"n_train {metrics['n_train']}", metrics["n_train"] == self.train_xs.size)

        mean, var = reference.nig_predictive(self.train_xs, self.train_ys, self.held_xs)
        held_mean, _ = self._back(mean, var)
        blr_rmse = float(np.sqrt(np.mean((held_mean - self.held_raw_ys) ** 2)))
        expect_close("blr_rmse", metrics["holdout"]["blr_rmse"], blr_rmse)

        expect("probe count", pred["x"].size == self.run["probe_count"])
        expect_close("probe grid start", pred["x"][0], self.raw_xs.min(), rel=1e-12)
        expect_close("probe grid end", pred["x"][-1], self.raw_xs.max(), rel=1e-12)
        grid = np.linspace(0.0, reference.X_SPAN, self.run["probe_count"])
        blr_mean, blr_std = self._back(*reference.nig_predictive(
            self.train_xs, self.train_ys, grid))
        expect_close("blr_mean column", pred["blr_mean"], blr_mean)
        expect_close("blr_std column", pred["blr_std"], blr_std)
        for column in ("mean", "map_mean"):
            expect(f"{column} column is not finite", bool(np.all(np.isfinite(pred[column]))))
        for column in ("std", "blr_std"):
            ok = np.all(np.isfinite(pred[column])) and np.all(pred[column] > 0.0)
            expect(f"{column} column has a non-finite or non-positive entry", bool(ok))

    def check_traced(self, captured: dict) -> None:
        samples = captured["run_schedule"]
        expect("no samples captured", bool(samples))
        for sample in samples:
            expect_tree_scores(
                f"chain {sample.chain} sweep {sample.sweep}",
                captured["to_nested"](sample.ast), self.train_xs, self.train_ys,
                sample.log_likelihood, sample.log_prior,
            )


class ComparePeriodic(Workload):
    """`compare-inference` on a fixed PER tree over a periodic series."""

    name = "compare-periodic"
    task = "compare-inference"
    schedule = {"chains": 2, "sweeps": 2, "hyper_steps": 10}
    run = {
        "compare_structure": '["PER", 1, 1]',
        "holdout_fraction": 0.2, "holdout_mode": "extrapolate-tail",
    }
    points = 200

    def make_data(self, call: int) -> Path:
        rng = data_rng(self.seed, call)
        xs = np.linspace(0.0, reference.X_SPAN, self.points)
        ys = per_sample(rng, xs)
        (self.train_xs, self.train_ys), _ = reference.tail_split(
            xs, ys, self.run["holdout_fraction"]
        )
        path = self.work / "periodic.csv"
        write_csv(path, ["x", "y"], zip(xs, ys))
        return path

    def moves(self, out: Path) -> int:
        s = self.schedule
        return 2 * s["chains"] * s["sweeps"] * s["hyper_steps"]

    def check(self, out: Path) -> None:
        metrics = json.loads((out / "metrics.json").read_text())
        s = self.schedule
        steps = s["sweeps"] * s["hyper_steps"]
        expect(f"steps_per_chain {metrics['steps_per_chain']}",
               metrics["steps_per_chain"] == steps)
        expect(f"n_train {metrics['n_train']}", metrics["n_train"] == self.train_xs.size)
        scores: dict[tuple[float, float], float] = {}
        for method in ("mh", "gradient"):
            trace = read_csv(out / f"hyper_traces_{method}.csv")
            rows = trace["log_joint"].size
            expect(f"{method}: {rows} trace rows, not {s['chains'] * steps}",
                   rows == s["chains"] * steps)
            for h0, h1, got in zip(trace["h0"], trace["h1"], trace["log_joint"]):
                if (h0, h1) not in scores:
                    tree = ["PER", h0, h1]
                    ll, _ = reference.log_marginal(tree, self.train_xs, self.train_ys)
                    scores[(h0, h1)] = ll + reference.log_prior(tree)
                expect_close(f"{method} log_joint at PER({h0!r}, {h1!r})",
                             got, scores[(h0, h1)])

    def check_traced(self, captured: dict) -> None:
        finals = captured["run_hyper_inference"]
        expect("no final states captured", len(finals) == 2 * self.schedule["chains"])
        for state in finals:
            expect_tree_scores("final state", captured["to_nested"](state.ast),
                               self.train_xs, self.train_ys,
                               state.log_likelihood, state.log_prior)


class ClusterPanel(Workload):
    """`cluster` on a panel of two linear and two periodic series."""

    name = "cluster-panel"
    task = "cluster"
    schedule = {
        "chains": 1, "sweeps": 80, "hyper_steps": 5, "structure_steps": 5,
        "burn_in": 0.2, "hyper_mode": "mh",
    }
    names = ("linear_a", "linear_b", "periodic_a", "periodic_b")
    points = 100

    def make_data(self, call: int) -> Path:
        rng = data_rng(self.seed, call)
        xs = np.linspace(0.0, reference.X_SPAN, self.points)
        ys = [lin_sample(rng, xs), lin_sample(rng, xs), per_sample(rng, xs), per_sample(rng, xs)]
        all_xs, all_ys = np.tile(xs, len(ys)), np.concatenate(ys)
        self.series = [reference.standardize(xs, y, all_xs, all_ys) for y in ys]
        path = self.work / "panel.csv"
        write_csv(path, ["series_id", "x", "y"],
                  [(name, x, y) for name, y_row in zip(self.names, ys)
                   for x, y in zip(xs, y_row)])
        return path

    def _records(self, out: Path) -> list[dict]:
        return json.loads((out / "partitions.json").read_text())

    def moves(self, out: Path) -> int:
        s = self.schedule
        per_cluster = s["hyper_steps"] + s["structure_steps"]
        return sum(len(self.names) + len(r["partition"]) * per_cluster
                   for r in self._records(out))

    def check(self, out: Path) -> None:
        metrics = json.loads((out / "metrics.json").read_text())
        records = self._records(out)
        sweeps = self.schedule["sweeps"]
        expect(f"{len(records)} records, not {sweeps}",
               len(records) == sweeps == metrics["recorded_sweeps"])
        blocks_of = []
        for record in records:
            members = [name for block in record["partition"] for name in block]
            expect(f"sweep {record['sweep']}: {record['partition']} is not a set "
                   f"partition of {self.names}",
                   sorted(members) == sorted(self.names)
                   and all(record["partition"]))
            expect(f"sweep {record['sweep']}: labels {record['labels']} do not match "
                   f"the blocks one to one",
                   len(record["labels"]) == len(record["partition"])
                   and all(record["labels"]))
            blocks_of.append(frozenset(frozenset(block) for block in record["partition"]))
        post = blocks_of[math.ceil(self.schedule["burn_in"] * len(records)):]
        tallies: dict[frozenset, int] = {}
        for blocks in post:
            tallies[blocks] = tallies.get(blocks, 0) + 1
        modal = frozenset(frozenset(block) for block in metrics["modal_partition"])
        best = max(tallies.values())
        expect(f"modal_partition {metrics['modal_partition']} seen "
               f"{tallies.get(modal, 0)} times, the mode {best}",
               tallies.get(modal, 0) == best)
        expect_close("modal_mass", metrics["modal_mass"], best / len(post), rel=1e-12)

    def check_traced(self, captured: dict) -> None:
        state = captured["cluster_sweep"]
        expect("no cluster state captured", state is not None)
        for index, (xs, ys) in enumerate(self.series):
            ast = state.cluster_asts[state.assignments[index]]
            expect_tree_scores(f"series {self.names[index]}", captured["to_nested"](ast),
                               xs, ys, state.member_lls[index])


WORKLOADS = {w.name: w for w in (FitAirline, ComparePeriodic, ClusterPanel)}
