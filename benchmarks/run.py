"""saea benchmark: end-to-end metrics per workload, or per-layer metrics from
a traced run.

    python3 benchmarks/run.py --workload ring20_recovery --seed 0 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all

Run it from the root of a source checkout; it imports saea from ./src and
writes its inputs and results under ./.bench_out. One run sets the inputs up
SETUP_REPEATS times, then repeats the workload's round (see workloads.py)
until --seconds have passed. With --trace 0 it prints every end-to-end
metric, its times scaled to a nominal host speed by a reference kernel timed
all through the run (workloads.HostGauge); with --trace 1 it alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only if every operation and correctness check passed.
"""

import os

BLAS_THREADS = "1"
# Pin BLAS threads before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("ring20_recovery", "road200_kinds", "road200_score")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "saea").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every metric by name."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        results[name] = (proc.returncode, result)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, (code, result) in results.items():
        if result is None:
            print(f"{name}: exited {code} without a result")
            correct = False
            continue
        correct = correct and code == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name}: correct={result['correct']} failed_frac={result['failed'] / result['attempted']:.6g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:36s} {entry['value']!s:>24} {entry['unit']}")
            metrics[f"{name}/{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "saea" / "__init__.py").is_file():
        print(f"no saea source tree under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.seconds <= 0 or args.seed < 0:
        print("--seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import numpy as np

    import saea
    import tracing
    import workloads as wls

    import_s = perf_counter() - started
    if Path(saea.__file__).resolve().parent != SRC / "saea":
        print(f"imported saea from {saea.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    gauge = wls.HostGauge()
    gauge.start()
    try:
        return run_workload(args, np, tracing, wls, gauge, import_s)
    finally:
        gauge.stop()


def run_workload(args, np, tracing, wls, gauge, import_s: float) -> int:
    wl = wls.WORKLOADS[args.workload]
    out = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ledger = wls.Ledger()
    wls.install_fit_observer(ledger)
    tracer = tracing.Tracer(wls.api) if args.trace else None

    setup_times = []
    for rep in range(wls.SETUP_REPEATS):
        if tracer:
            tracer.install("setup", names=tracing.SETUP_LAYERS)
        t0 = gauge.stamp()
        inputs = wls.setup_inputs(wl, args.seed, out / f"inputs{rep}")
        setup_times.append(gauge.since(t0))
        if tracer:
            tracer.uninstall()
    prep = wls.prepare(wl, inputs)
    env = environment(np, args.seed)
    env["workload"] = wl.name
    env["sizes"] = wls.input_sizes(wl, prep)
    print("environment " + json.dumps(env, sort_keys=True))

    plain, traced = [], []
    deadline = perf_counter() + args.seconds
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.install(len(plain) + len(traced))
        result = wls.run_round(wl, args.seed, inputs, prep, out / "round", ledger, gauge)
        if trace_this:
            tracer.uninstall()
        (traced if trace_this else plain).append(result)
        if perf_counter() >= deadline and (tracer is None or traced):
            break
    rounds = plain + traced
    ledger.record(
        len({r["outputs"]["compare_sha256"] for r in rounds}) == 1,
        "compare.json differs between rounds of the same inputs",
    )

    if tracer is None:
        # the import ran before the gauge started; it is scaled like the set-up
        setup = sorted(setup_times)[len(setup_times) // 2]
        setup_s = gauge.adjust((import_s + setup[0], 0, setup_times[-1][2]))
        metrics = wls.end_to_end(wl, prep, plain, setup_s, gauge)
    else:
        overhead = statistics.median(gauge.adjust(r["wall_s"]) for r in traced) / statistics.median(
            gauge.adjust(r["wall_s"]) for r in plain
        ) - 1.0
        metrics = tracer.layer_metrics(len(traced), len(setup_times), overhead)
        tracer.dump(out / "trace.json")
    correct = ledger.failed == 0 and all(m["value"] is not None for m in metrics.values())

    record = {
        "environment": env,
        "import_s": import_s,
        "setup_s": setup_times,
        "gauge_s": gauge.samples,
        "ref_nominal_s": wls.REF_NOMINAL_S,
        "rounds": [
            {k: (v.tolist() if hasattr(v, "tolist") else v) for k, v in r.items()} for r in rounds
        ],
        "traced_rounds": len(traced),
        "failures": ledger.failures,
        "metrics": metrics,
    }
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for rep in range(wls.SETUP_REPEATS):
        shutil.rmtree(out / f"inputs{rep}")
    shutil.rmtree(out / "round")

    for failure in ledger.failures:
        print(f"FAILED: {failure}")
    print(f"failed_frac {ledger.failed / ledger.attempted:.6g} ({ledger.failed} of {ledger.attempted})")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
