"""End-to-end and per-layer benchmark of the covsearch command line.

Run from the repository root:

    python3 perfbench/run.py --workload fit-airline --seed 1 --seconds 35 --trace 0

Workloads: fit-airline, compare-periodic, cluster-panel (see README.md).

With `--trace 0` the benchmark starts one `python3 -m covsearch` process
at a time (a closed loop with one client) for `--seconds`, each call
with its own program seed and series and each after an import-only
process, checks every call's output files against its own dense
computations, and reports the medians of the end-to-end metrics. With `--trace 1` it instead calls `covsearch.cli.main` in this
process: first untraced for `--seconds`, then once with every public
function of each module wrapped in a span, and reports per-layer self
times and counts plus the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Work files go to
`.perfbench_work/` at the repository root.
"""

import os

# Dropped before numpy loads, so that this process and every CLI process
# it starts run at the BLAS libraries' own default thread count: that is
# the thread choice users get, and what the benchmark measures.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import METRICS as LAYER_METRICS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# At least this many untraced in-process calls precede the traced one.
MIN_UNTRACED = 3

END_TO_END_UNITS = {
    "task_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "moves_per_s": "1/s",
}


def openblas_libs():
    """(package, library, symbol suffix) of each OpenBLAS numpy and scipy load."""
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            if hasattr(lib, f"scipy_openblas_get_config{suffix}"):
                yield package.__name__, lib, suffix


def set_blas_threads(count: int) -> None:
    """Pin this process's BLAS thread pools, as the environment does for the CLI."""
    for _, lib, suffix in openblas_libs():
        getattr(lib, f"scipy_openblas_set_num_threads{suffix}")(ctypes.c_int(count))


def blas_info() -> list[dict]:
    """Build and thread count in effect of each OpenBLAS load."""
    found = []
    for package, lib, suffix in openblas_libs():
        config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        config.restype = ctypes.c_char_p
        threads.restype = ctypes.c_int
        found.append({
            "package": package,
            "build": config().decode().strip(),
            "threads": threads(),
        })
    return found


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def cli_env(blas_threads: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env.update({var: str(blas_threads) for var in BLAS_VARS})
    return env


def run_process(argv: list[str], env: dict, log: Path) -> dict:
    """Wall time, CPU time and peak RSS of one child process."""
    with open(log, "w") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                 stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "task_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": child.returncode,
    }


def check_call(workload, out: Path) -> str | None:
    """None if the call's outputs are right, otherwise what is wrong."""
    try:
        workload.check(out)
    except (CheckFailed, OSError, KeyError, IndexError, TypeError, ValueError) as err:
        return f"{type(err).__name__}: {err}"
    return None


def timed_run(workload, seconds: float, work: Path,
              blas_threads: int | None) -> tuple[dict, list[dict], list[str]]:
    """Rounds of one import-only process and one CLI call, for `seconds`."""
    env = cli_env(blas_threads)
    # The checks between calls are small; one thread keeps this process's
    # idle BLAS workers from spinning while the next CLI process runs.
    set_blas_threads(1)
    cli = [sys.executable, "-m", "covsearch"]
    setup = [sys.executable, "-c", "import covsearch.cli"]
    # One untimed call first, so the file cache and byte-code are warm.
    warm = run_process(cli + workload.prepare(work / "warm", 0), env, work / "warm.log")
    if warm["returncode"] != 0:
        raise SystemExit(f"warm-up call failed: {(work / 'warm.log').read_text()}")
    calls, setups, problems = [], [], []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        index = len(calls)
        imported = run_process(setup, env, work / "setup.log")
        if imported["returncode"] != 0:
            raise SystemExit(f"importing covsearch.cli failed: {(work / 'setup.log').read_text()}")
        setups.append(imported["task_s"])
        out = work / f"call{index}"
        record = run_process(cli + workload.prepare(out, index), env, work / "call.log")
        record["call"] = index
        if record["returncode"] == 0:
            problem = check_call(workload, out)
            if problem is None:
                record["moves"] = workload.moves(out)
            else:
                problems.append(f"call {index}: {problem}")
        else:
            record["error"] = (work / "call.log").read_text().strip()
        calls.append(record)
        shutil.rmtree(out, ignore_errors=True)
    metrics = {"setup_s": statistics.median(setups)}
    ok = [c for c in calls if "moves" in c]
    if ok:
        for name in ("task_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(c[name] for c in ok)
        metrics["moves_per_s"] = statistics.median(c["moves"] / c["task_s"] for c in ok)
    return metrics, calls, problems


def install_capture(captured: dict) -> list:
    """Keep the samples and states a CLI call computes, for the dense checks."""
    import covsearch.cli as cli
    import covsearch.clustering as clustering

    def keep(module, name, store):
        original = getattr(module, name)

        def kept(*args, **kwargs):
            result = original(*args, **kwargs)
            store(args, result)
            return result

        setattr(module, name, kept)
        return module, name, original

    def store_samples(args, result):
        captured["run_schedule"] = result

    def store_finals(args, result):
        captured["run_hyper_inference"].extend(result[1])

    def store_state(args, result):
        captured["cluster_sweep"] = result

    captured.update(run_schedule=[], run_hyper_inference=[], cluster_sweep=None)
    return [
        keep(cli, "run_schedule", store_samples),
        keep(cli, "run_hyper_inference", store_finals),
        keep(clustering, "cluster_sweep", store_state),
    ]


def traced_run(workload, seconds: float, work: Path,
               blas_threads: int | None) -> tuple[dict, list[dict], list[str]]:
    sys.path.insert(0, str(SRC))
    import covsearch.cli
    from covsearch.kernels import to_nested

    if not Path(covsearch.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"covsearch imported from {covsearch.cli.__file__}, not {SRC}")
    calls, problems = [], []

    def call(out: Path) -> dict:
        argv = workload.prepare(out, 0)
        start = time.perf_counter()
        code = covsearch.cli.main(argv)
        record = {"task_s": time.perf_counter() - start, "returncode": code}
        if code == 0:
            problem = check_call(workload, out)
            if problem is not None:
                problems.append(f"call {len(calls)}: {problem}")
        calls.append(record)
        return record

    call(work / "warm")
    calls.clear()
    start = time.perf_counter()
    while len(calls) < MIN_UNTRACED or time.perf_counter() - start < seconds:
        call(work / "untraced")
    untraced = statistics.median(c["task_s"] for c in calls)

    captured = {"to_nested": to_nested}
    restore = install_capture(captured)
    tracer = Tracer()
    tracer.install()
    try:
        record = call(work / "traced")
    finally:
        tracer.uninstall()
        for module, name, original in restore:
            setattr(module, name, original)
    record["traced"] = True
    tracer.write_spans(work / "spans.csv")

    try:
        workload.check_traced(captured)
    except CheckFailed as err:
        problems.append(f"traced call: {err}")
    own = tracer.self_times()
    covered = sum(end - begin for _, _, begin, end, parent in tracer.spans if parent < 0)
    outside = record["task_s"] - covered
    if (own.size and own.min() < -1e-9) or outside < 0.0:
        problems.append("spans do not nest inside their parents")
    if abs(float(own.sum()) + outside - record["task_s"]) > 1e-9 * record["task_s"]:
        problems.append("self times plus untraced time do not add up to the task time")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = record["task_s"] - untraced
    print(f"traced task {record['task_s']:.4f} s = spans' self time {own.sum():.4f} s"
          f" + untraced {outside:.4f} s; untraced in-process median {untraced:.4f} s"
          f" over {len(calls) - 1} calls")
    return metrics, calls, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads", type=int, default=None,
        help="pin BLAS to this many threads (default: the libraries' own choice)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "covsearch" / "cli.py").is_file():
        print(f"no covsearch sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, work)
    if args.blas_threads is not None:
        # The CLI processes get the same count through their environment.
        set_blas_threads(args.blas_threads)
    machine = machine_info()
    runner = traced_run if args.trace else timed_run
    metrics, calls, problems = runner(workload, args.seconds, work, args.blas_threads)

    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units.update(END_TO_END_UNITS)
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(c["returncode"] != 0 for c in calls),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "machine": machine, "calls": calls,
         "problems": problems, **result}, indent=2) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    threads = ", ".join(f"{b['package']} {b['threads']}" for b in machine["blas"])
    print(f"machine: nproc {machine['nproc']}, BLAS threads {threads}, "
          f"python {machine['python']}, numpy {machine['numpy']}, scipy {machine['scipy']}")
    for build in machine["blas"]:
        print(f"blas ({build['package']}): {build['build']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
