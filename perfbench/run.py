"""spectralab benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 30 --trace 0

Runs one workload (see ``problems.py``) in this process, through
``spectralab.reporting.run_scenario`` with the arguments of the matching CLI
command, serially as a closed loop: one caller, each problem starting when
the previous one ends.  A warm-up pass in the listed order comes first; then
passes in shuffled order repeat while the next one is expected to end within
``--seconds`` of the start.  Every problem of every pass is checked by the
correctness gate in ``problems.failures``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall time
of one pass after the warm-up), ``setup_s`` (median over fresh processes of
importing spectralab, parsing the workload's scenarios and building the
charts) and ``peak_rss_mb`` (resident peak over the warm-up pass).
``--trace 1`` alternates untraced and traced passes after the warm-up and
reports the per-layer metrics of ``tracing.PER_LAYER``.  Both print
``failed_frac`` and the machine facts, write them with the metrics to
``perfbench/out/``, and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

BLAS runs on a fixed number of threads, so that two runs on one machine
compare like with like.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # read when numpy loads BLAS, below

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
if not (ROOT / "src" / "spectralab").is_dir():
    sys.exit(f"no spectralab sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from spectralab import reporting  # noqa: E402

import problems  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    counts: list        # evaluated, skipped, failed inequality checks
    bytes_written: int


def machine_facts(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spectralab").glob("*.py")):
        digest.update(path.read_bytes())

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(np),
        "blas_scipy": blas(scipy),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure_setup(plist):
    """Median set-up seconds over SETUP_PROBES fresh processes."""
    texts = json.dumps([p.text for p in plist])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=texts,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_pass(plist, golden, tracer=None):
    """Run every problem once, in the given order; gate each one."""
    wall = 0.0
    failed = 0
    counts = [0, 0, 0]
    written = 0
    results = []
    with tracing.instrument(results, tracer):
        for problem in plist:
            results.clear()
            start = time.perf_counter()
            scenario = reporting.parse_config(problem.text)
            out_dir = OUT / "artifacts" / scenario.name
            if tracer is None:
                run = reporting.run_scenario(scenario, out_dir=str(out_dir), **problem.kwargs)
            else:
                tracer.problem = problem.key
                with tracer.span("reporting.run_scenario"):
                    run = reporting.run_scenario(scenario, out_dir=str(out_dir),
                                                 **problem.kwargs)
            wall += time.perf_counter() - start
            reasons = problems.failures(problem, run, results, golden)
            if reasons:
                failed += 1
                print(f"FAILED {problem.key}: {'; '.join(reasons)}", file=sys.stderr)
            counts = [x + y for x, y in zip(counts, problems.check_counts(run.reports))]
            written += sum((out_dir / name).stat().st_size for name in run.files)
    return PassResult(wall, len(plist), failed, counts, written)


def fits(start, seconds, walls):
    """Whether one more unit of work, as long as the median so far, ends in time."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def shuffled(plist, rng):
    order = list(plist)
    rng.shuffle(order)
    return order


def end_to_end(plist, golden, rng, seconds):
    setup_s = measure_setup(plist)
    start = time.perf_counter()
    warmup = run_pass(plist, golden)
    # The warm-up pass runs in the listed order on a fresh heap, as a CLI
    # process does.  Later passes peak higher and erratically after the heap
    # state earlier ones leave (340-520 MB against 301 MB on many_modes), and
    # run faster (a first many_modes pass was 10-20% slower).
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = []
    while not passes or fits(start, seconds, [p.wall_s for p in passes]):
        passes.append(run_pass(shuffled(plist, rng), golden))
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return warmup, passes, metrics, {}


def traced(plist, golden, rng, seconds, spans_path):
    start = time.perf_counter()
    warmup = run_pass(plist, golden)
    plain, passes, layers, spans = [], [], [], []
    while not passes or fits(start, seconds, [a.wall_s + b.wall_s
                                              for a, b in zip(plain, passes)]):
        plain.append(run_pass(shuffled(plist, rng), golden))
        tracer = tracing.Tracer()
        result = run_pass(shuffled(plist, rng), golden, tracer)
        passes.append(result)
        metrics = tracing.layer_metrics(tracer)
        metrics["bounds.evaluated"], metrics["bounds.skipped"], metrics["bounds.failed"] = \
            result.counts
        metrics["reporting.bytes_written"] = result.bytes_written
        layers.append(metrics)
        spans += tracer.rows(len(passes) - 1)
    with open(spans_path, "w") as handle:
        json.dump(spans, handle)

    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in passes)
                                   - statistics.median(p.wall_s for p in plain))
    ref_s, solve_s, worst = tracing.eigsh_reference(tracer)
    metrics["eigensolve.eigsh_ref_s"] = ref_s
    metrics["eigensolve.vs_eigsh"] = solve_s / ref_s
    extra = {"eigsh_max_rel_diff": worst}
    if worst > problems.EIGENVALUE_RTOL:
        print(f"FAILED eigsh reference: eigenvalues differ by {worst:.3g} relative",
              file=sys.stderr)
        passes[-1].failed += 1
    return warmup, plain + passes, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    plist = problems.workload_problems(args.workload, rng, ROOT)
    golden = problems.load_golden()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    facts = machine_facts(args.seed)

    if args.trace:
        warmup, passes, metrics, extra = traced(plist, golden, rng, args.seconds,
                                                OUT / f"spans-{stem}.json")
        units = tracing.PER_LAYER
    else:
        warmup, passes, metrics, extra = end_to_end(plist, golden, rng, args.seconds)
        units = END_TO_END
    attempted = sum(p.attempted for p in [warmup, *passes])
    failed = sum(p.failed for p in [warmup, *passes])

    summary = {
        "workload": args.workload, "trace": args.trace, "machine": facts,
        "problems": [p.key for p in plist], "passes": len(passes),
        "warmup_wall_s": warmup.wall_s, "pass_wall_s": [p.wall_s for p in passes],
        "failed_frac": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}, **extra,
    }
    with open(OUT / f"result-{stem}-trace{args.trace}.json", "w") as handle:
        json.dump(summary, handle, indent=2)

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} after a warm-up pass, "
          f"problems/pass={len(plist)} trace={args.trace}")
    print("# machine " + json.dumps(facts, sort_keys=True))
    for name, entry in summary["metrics"].items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_frac':34s} {failed / attempted:.6g} share ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
