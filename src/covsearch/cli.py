"""Command-line interface.

Subcommands: fit, predict, cluster, compare-inference, synth-data.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure. Each task runs BLAS on one thread unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set (see `blas.py`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .baseline import blr_baseline
from .blas import single_blas_thread
from .clustering import modal_partition, run_cluster_schedule
from .config import RunConfig, load_config
from .data import (
    SYNTH_KINDS,
    IngestResult,
    ingest_csv,
    split_holdout,
    synth_data,
    write_dataset_csv,
)
from .errors import ConfigError, DataError, NumericError, StructureError
from .inference import (
    averaged_prediction,
    averaged_predictions,
    drop_burn_in,
    gradient_sites,
    gradient_supported,
    map_structure,
    run_hyper_inference,
    run_schedule,
    structure_histogram,
)
from .kernels import from_nested, hyper_sites
from .results import emit_results, mse, rmse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsearch",
        description="Bayesian search over compositional GP covariance structure.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, help="override the schedule seed")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    needs_data = argparse.ArgumentParser(add_help=False)
    needs_data.add_argument("--data", required=True, help="input CSV file")
    needs_data.add_argument("--chains", type=int, help="override the chain count")

    sub = parser.add_subparsers(dest="task", required=True)
    sub.add_parser(
        "fit",
        parents=[common, needs_data],
        help="search structures, score them on a holdout split",
    ).set_defaults(runner=_run_fit_predict, holdout=True)
    sub.add_parser(
        "predict",
        parents=[common, needs_data],
        help="search structures on all data and emit predictive curves",
    ).set_defaults(runner=_run_fit_predict, holdout=False)
    sub.add_parser(
        "cluster",
        parents=[common, needs_data],
        help="partition related series over shared structures",
    ).set_defaults(runner=_run_cluster)
    sub.add_parser(
        "compare-inference",
        parents=[common, needs_data],
        help="fixed-structure hyperparameter inference, MH against gradients",
    ).set_defaults(runner=_run_compare)
    synth = sub.add_parser(
        "synth-data",
        parents=[common],
        help="generate a synthetic benchmark series",
    )
    synth.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    synth.add_argument("--n", type=int, default=200, help="number of points")
    synth.set_defaults(runner=_run_synth)
    return parser


def _load_run_config(args) -> RunConfig:
    """The config of the file and `--set`, then of the subcommand and flags."""
    overrides = [*args.overrides, f"run.task={args.task}"]
    if args.seed is not None:
        overrides.append(f"schedule.seed={args.seed}")
    if getattr(args, "chains", None) is not None:
        overrides.append(f"schedule.chains={args.chains}")
    return load_config(args.config, tuple(overrides))


def _ingest(args, cfg: RunConfig) -> IngestResult:
    return ingest_csv(args.data, standardize=cfg.resolved_standardize())


def _y_back(transform, ys):
    return ys if transform is None else transform.y_back(ys)


def _std_back(transform, post):
    std = np.sqrt(post.variance)
    return std if transform is None else transform.y_spread_back(std)


def _run_fit_predict(args, cfg: RunConfig) -> None:
    ingested = _ingest(args, cfg)
    full = ingested.dataset
    transform = ingested.standardization
    fraction = cfg.holdout_fraction if args.holdout else 0.0
    train, held = split_holdout(
        full, fraction, cfg.holdout_mode, np.random.default_rng(cfg.schedule.seed)
    )
    samples = run_schedule(
        train, cfg.schedule, prior=cfg.prior, noise_var=cfg.noise_var
    )
    kept = drop_burn_in(samples, cfg.schedule.burn_in)
    counts = structure_histogram(kept)
    map_label = map_structure(kept)

    grid = np.linspace(float(np.min(full.xs)), float(np.max(full.xs)), cfg.probe_count)
    probes = [(grid, False)]
    if len(held) > 0:
        probes.append((held.xs, True))
    groups = [
        range(len(kept)),
        [i for i, sample in enumerate(kept) if sample.label == map_label],
    ]
    if cfg.emit_sample_curves:
        step = max(1, len(kept) // cfg.emit_sample_curves)
        groups += [[i] for i in range(0, len(kept), step)][: cfg.emit_sample_curves]
    everything, on_map, *curves = averaged_predictions(
        kept, train, probes, groups, cfg.noise_var
    )
    avg, map_avg = everything[0], on_map[0]
    blr = blr_baseline(train, grid)

    predictions = {
        "x": grid if transform is None else transform.x_back(grid),
        "mean": _y_back(transform, avg.mean),
        "std": _std_back(transform, avg),
        "map_mean": _y_back(transform, map_avg.mean),
        "blr_mean": _y_back(transform, blr.mean),
        "blr_std": _std_back(transform, blr),
    }
    for i, curve in enumerate(row[0] for row in curves):
        predictions[f"sample_{i}"] = _y_back(transform, curve.mean)

    metrics: dict = {
        "task": cfg.task,
        "n_train": len(train),
        "n_holdout": len(held),
        "map_structure": map_label,
        "recorded_samples": len(kept),
        "standardization": None if transform is None else transform.to_dict(),
    }
    if len(held) > 0:
        avg_h, map_h = everything[1], on_map[1]
        blr_h = blr_baseline(train, held.xs)
        truth = _y_back(transform, held.ys)
        metrics["holdout"] = {
            "gp_average_rmse": rmse(_y_back(transform, avg_h.mean), truth),
            "gp_map_rmse": rmse(_y_back(transform, map_h.mean), truth),
            "blr_rmse": rmse(_y_back(transform, blr_h.mean), truth),
        }
    emit_results(
        args.out, histogram=counts, predictions=predictions, metrics=metrics
    )


def _run_cluster(args, cfg: RunConfig) -> None:
    ingested = _ingest(args, cfg)
    names = [name for name, _ in ingested.series]
    series = [data for _, data in ingested.series]
    samples = run_cluster_schedule(
        series,
        cfg.schedule,
        concentration=cfg.concentration,
        prior=cfg.prior,
        noise_var=cfg.noise_var,
    )
    records = []
    for sample in samples:
        records.append(
            {
                "sweep": sample.sweep,
                "partition": [
                    [names[i] for i in members] for members in sample.partition
                ],
                "labels": list(sample.labels),
            }
        )
    modal, mass = modal_partition(samples, cfg.schedule.burn_in)
    metrics = {
        "task": cfg.task,
        "n_series": len(series),
        "concentration": cfg.concentration,
        "modal_partition": [[names[i] for i in members] for members in modal],
        "modal_mass": mass,
        "recorded_sweeps": len(samples),
    }
    emit_results(args.out, metrics=metrics, partitions=records)


def _compare_skeleton(cfg: RunConfig):
    try:
        spec = json.loads(cfg.compare_structure)
    except json.JSONDecodeError as err:
        raise ConfigError(f"compare_structure is not valid JSON: {err}") from None
    try:
        skeleton = from_nested(spec)
    except StructureError as err:
        raise ConfigError(f"compare_structure: {err}") from None
    if not gradient_supported(skeleton):
        raise ConfigError(
            "compare_structure contains a changepoint; the gradient "
            "method is undefined for it"
        )
    if not gradient_sites(skeleton):
        raise ConfigError(
            "compare_structure has no hyperparameter that gradient steps "
            "move (white-noise scales stay on MH moves)"
        )
    return skeleton


def _run_compare(args, cfg: RunConfig) -> None:
    ingested = _ingest(args, cfg)
    full = ingested.dataset
    transform = ingested.standardization
    train, held = split_holdout(
        full, cfg.holdout_fraction, cfg.holdout_mode,
        np.random.default_rng(cfg.schedule.seed),
    )
    skeleton = _compare_skeleton(cfg)
    steps = cfg.schedule.sweeps * cfg.schedule.hyper_steps
    sites = hyper_sites(skeleton)
    traces_out: dict[str, dict[str, np.ndarray]] = {}
    metrics: dict = {
        "task": cfg.task,
        "n_train": len(train),
        "n_holdout": len(held),
        "structure": cfg.compare_structure,
        "steps_per_chain": steps,
        "methods": {},
    }
    for method in ("mh", "gradient"):
        samples, finals = run_hyper_inference(
            train,
            skeleton,
            method,
            cfg.schedule,
            prior=cfg.prior,
            noise_var=cfg.noise_var,
        )
        columns: dict[str, np.ndarray] = {
            "chain": np.array([t.chain for t in samples], dtype=float),
            "step": np.array([t.sweep for t in samples], dtype=float),
            "log_joint": np.array([t.log_joint for t in samples]),
        }
        for i, (node, slot) in enumerate(sites):
            columns[f"h{i}"] = np.array(
                [t.ast.nodes[node].hypers[slot].constrained for t in samples]
            )
        traces_out[method] = columns
        summary: dict = {"final_log_joints": [s.log_joint for s in finals]}
        if len(held) > 0:
            if method == "mh":
                posts = drop_burn_in(samples, cfg.schedule.burn_in)
                posts = posts[:: max(1, len(posts) // 200)]
            else:
                posts = [max(finals, key=lambda s: s.log_joint)]
            post = averaged_prediction(posts, train, held.xs, cfg.noise_var)
            summary["holdout_mse"] = mse(
                _y_back(transform, post.mean), _y_back(transform, held.ys)
            )
        metrics["methods"][method] = summary
    emit_results(args.out, metrics=metrics, traces=traces_out)


def _run_synth(args, cfg: RunConfig) -> None:
    rng = np.random.default_rng(cfg.schedule.seed)
    data = synth_data(args.kind, args.n, rng, cfg.noise_var)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(out_dir / f"{args.kind}.csv", data)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_run_config(args)
        with single_blas_thread():
            args.runner(args, cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    # This route would load numpy before any BLAS thread pin could apply.
    print("run the command line as `python -m covsearch`, not `python -m covsearch.cli`",
          file=sys.stderr)
    sys.exit(2)
