#!/usr/bin/env python3
"""revtherm benchmark: seeded CLI workloads, end-to-end and per layer.

Run from the repository root:

    python3 bench/run.py --workload thermo-mix --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

One closed-loop client runs the workload's pass of scenario files again
and again, each scenario as one in-process call to revtherm.cli.main,
until --seconds have elapsed at a pass boundary. Each scenario is timed
by the trimmed mean of its calls, scaled to the reference machine's speed
by a fixed kernel timed through the run. --trace 0 reports the
end-to-end metrics; --trace 1 runs half the time untraced and half with
every revtherm module wrapped (tracing.py), and reports per-layer metrics.
Every call's exit code and stderr are checked, and after the timed loop
each scenario's outputs are checked against an independent reference
(oracle.py) or the committed goldens. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: on a 2-core machine a second thread gave no
# gain on the d^2 x d^2 eig, and one thread keeps runs comparable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORKLOADS = ("thermo-mix", "gksl-trajectory", "gksl-spectrum")
D_BUCKETS = (4, 8, 12, 16)
SETUP_SAMPLES = 10
# The speed kernel's trimmed-mean time on the reference machine, and how
# often the loop times it.
KERNEL_REF_MS = 6.0
KERNEL_INTERVAL_S = 0.25
REFERENCE_REPEATS = 3
TAIL_LADDER = (99, 90, 75, 50)


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


# -- environment record ------------------------------------------------------------


def _median_wall(cmd, repeats, env=None) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment(np, seed) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "pinned_threads": int(BLAS_THREADS), "reported_threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "seed": seed,
        "reference_s": {
            "python -c pass": _median_wall([sys.executable, "-c", "pass"], REFERENCE_REPEATS),
            "import numpy, click": _median_wall(
                [sys.executable, "-c", "import numpy, click"], REFERENCE_REPEATS),
        },
        "client": "one closed-loop client, no queue: waiting time is zero by construction",
    }


# -- the client ---------------------------------------------------------------------


def call_main(cli, argv, tracer=None):
    """One in-process CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        sid = tracer.enter("cli.main") if tracer else None
        t0 = time.perf_counter()
        try:
            cli.main.main(args=argv, prog_name="revtherm")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.exit(sid)
    return elapsed, code, out.getvalue(), err.getvalue()


def call_error(scenario, code, stdout, stderr):
    """Why one call's exit code or streams are wrong, or None."""
    if code != scenario.expect:
        return f"exit {code}, expected {scenario.expect}: {stderr.strip()[:200]}"
    if stderr and not (stderr.startswith("error:") and stderr.count("\n") == 1):
        return f"unexpected stderr: {stderr.strip()[:200]}"
    if scenario.task == "batch":
        want = "".join(f"{m.path}: exit {m.expect}\n" for m in scenario.members)
        if stdout != want:
            return f"batch printed {stdout!r}"
    return None


def pass_order(scenarios):
    """One pass: each scenario `reps` times, its calls spread evenly through it."""
    slots = [((k + 0.5) / s.reps, i) for i, s in enumerate(scenarios) for k in range(s.reps)]
    return [scenarios[i] for _, i in sorted(slots)]


def run_passes(cli, scenarios, out_root, seconds, tracer=None, between=None, min_passes=1):
    """Whole passes until `seconds` have elapsed and at least `min_passes`
    are done; returns (records, passes, wall).

    `between` is called after every call; its time is left off the clock.
    """
    order = pass_order(scenarios)
    records = []
    passes = 0
    paused = 0.0
    t0 = time.perf_counter()
    while passes < min_passes or time.perf_counter() - t0 - paused < seconds:
        for i, s in enumerate(order):
            out_dir = out_root / s.id
            out_dir.mkdir(parents=True, exist_ok=True)
            if tracer:
                tracer.scenario = f"{passes}.{i}:{s.id}"
            elapsed, code, stdout, stderr = call_main(cli, s.argv(out_dir), tracer)
            records.append((s, elapsed, call_error(s, code, stdout, stderr)))
            if between:
                t1 = time.perf_counter()
                between()
                paused += time.perf_counter() - t1
        passes += 1
    return records, passes, time.perf_counter() - t0 - paused


def output_error(s, out_dir):
    """Post-run check of a scenario's files from its last call, or None."""
    if s.golden:
        fresh = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        committed = {p.name: p.read_bytes() for p in (GOLDEN / s.golden).iterdir()}
        return None if fresh == committed else f"output differs from tests/golden/{s.golden}"
    if s.check is None:
        return None
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return f"no readable report: {exc}"
    try:
        return s.check(report, out_dir)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks an expected output: {exc!r}"


# -- machine speed ------------------------------------------------------------------


def speed_kernel():
    """A timer for a fixed piece of work like revtherm's own mix: small
    complex eigenproblems, a dense product and a Python loop over numpy
    scalars. It calls nothing of revtherm, so no change to the program
    moves it; only the machine's speed does."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    b = rng.standard_normal((160, 160))

    def work():
        for _ in range(2):
            np.linalg.eig(a)
        b @ b
        acc = 0.0
        for i in range(1000):
            acc += float(abs(a[i % 40, 0]))

    def timed_ms():
        work()  # untimed, so that the cache state the last call left does not count
        t0 = time.perf_counter()
        work()
        return (time.perf_counter() - t0) * 1e3

    return timed_ms


def trimmed_mean(values, cut=0.1):
    """Mean after dropping the fastest and the slowest `cut` share."""
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k:len(v) - k])


# -- metrics --------------------------------------------------------------------------


def end_to_end(records, wall, setup_times, kernel_ms, scenario_d):
    """End-to-end metrics from the calls of one run.

    Each scenario is timed by the trimmed mean of its calls. The machine's
    speed drifts by up to a third for minutes at a time, with every
    scenario slowing together, so every time is scaled by `speed`: the
    speed kernel's reference time over its trimmed mean in this run, the
    kernel having been timed through the run between calls. A time then
    reads as on the reference machine at its usual speed. Every pass
    repeats the same calls, so the per-scenario times stand for the
    workload's mix, one value per scenario: the p50 metrics are their
    median, the tail is their highest ladder percentile that has at least
    ten calls beyond it, and the throughput is the scenario count over the
    sum of their times. The unscaled times and the raw completed-per-elapsed
    rate are kept beside them in the record.
    """
    speed = KERNEL_REF_MS / trimmed_mean(kernel_ms)
    per = {}
    for s, t, _ in records:
        per.setdefault(s.id, []).append(t * 1e3)
    raw = {sid: trimmed_mean(ts) for sid, ts in per.items()}
    scaled = {sid: t * speed for sid, t in raw.items()}
    n = len(records)
    pct = next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 100)
    ordered = sorted(scaled.values())
    tail_ms = (statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
               if pct < 100 and len(ordered) > 1 else ordered[-1])
    m = {
        "scenarios_per_s": (len(scaled) / (sum(ordered) / 1e3), "1/s"),
        "scenario_p50_ms": (statistics.median(ordered), "ms"),
        "scenario_tail_ms": (tail_ms, "ms"),
    }
    for d in D_BUCKETS:
        m[f"d{d}_p50_ms"] = (
            statistics.median(t for sid, t in scaled.items() if scenario_d[sid] == d), "ms")
    m["setup_s"] = (statistics.median(setup_times) * speed, "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m, {"tail_percentile": pct, "samples": n, "completed_per_s": n / wall,
               "speed": speed, "kernel_ms": kernel_ms, "raw_scenario_ms": raw,
               "raw_setup_s": statistics.median(setup_times), "times_ms": per}


def measure_setup(scenario, out_dir, times, errors):
    """Fresh interpreter importing revtherm.cli and finishing one scenario."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "revtherm", *scenario.argv(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    times.append(time.perf_counter() - t0)
    err = call_error(scenario, proc.returncode, proc.stdout, proc.stderr)
    if err:
        errors.append(f"setup {scenario.id}: {err}")


# -- entry points ------------------------------------------------------------------------


def untraced_run(cli, scenarios, setup_id, scenario_d, work, seconds, min_passes):
    """End-to-end metrics from the timed loop.

    Between calls and off the loop's clock, the speed kernel is timed
    every KERNEL_INTERVAL_S and set-up every `seconds`/SETUP_SAMPLES, so
    that both span the run like the calls do.
    """
    setup = next(s for s in scenarios if s.id == setup_id)
    kernel = speed_kernel()
    setup_times, kernel_ms, errors = [], [], []
    kernel_due = setup_due = time.perf_counter()

    def between():
        nonlocal kernel_due, setup_due
        now = time.perf_counter()
        if now >= kernel_due:
            kernel_ms.append(kernel())
            kernel_due = time.perf_counter() + KERNEL_INTERVAL_S
        if now >= setup_due:
            measure_setup(setup, work / "setup", setup_times, errors)
            setup_due = time.perf_counter() + seconds / SETUP_SAMPLES

    between()
    records, passes, wall = run_passes(cli, scenarios, work / "out", seconds,
                                       between=between, min_passes=min_passes)
    metrics, extra = end_to_end(records, wall, setup_times, kernel_ms, scenario_d)
    extra.update(passes=passes, setup_runs_s=setup_times)
    return records, metrics, extra, errors


def traced_run(cli, revtherm, scenarios, scenario_d, work, seconds, spans_path):
    """Per-layer metrics: half the time untraced, half traced."""
    plain, _, plain_wall = run_passes(cli, scenarios, work / "out", seconds / 2.0)
    tracer = Tracer()
    tracer.install(revtherm)
    try:
        traced, passes, traced_wall = run_passes(
            cli, scenarios, work / "out", seconds / 2.0, tracer)
    finally:
        tracer.remove()
    tracer.write(spans_path)
    metrics = tracer.summary(passes, scenario_d)
    untraced_rate = len(plain) / plain_wall
    traced_rate = len(traced) / traced_wall
    metrics["trace.scenarios_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    # every scenario directory holds exactly the files of its last call
    written = sum(p.stat().st_size for p in (work / "out").rglob("*") if p.is_file())
    metrics["cli.output_bytes"] = (written, "bytes")
    extra = {"traced_passes": passes, "untraced_scenarios_per_s": untraced_rate,
             "spans": str(spans_path.relative_to(ROOT))}
    return plain + traced, metrics, extra, []


def run_workload(args):
    if not (SRC / "revtherm" / "cli.py").is_file():
        fail(f"no revtherm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np

        import revtherm
        from revtherm import cli
    except ImportError as exc:
        fail(f"cannot import revtherm: {exc}")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".bench_out"
    results.mkdir(exist_ok=True)
    try:
        scenarios, setup_id = workloads.build(
            args.workload, args.seed, work / "scenarios", SRC / "revtherm" / "scenarios")
        scenario_d = {s.id: s.d for s in scenarios}
        env = environment(np, args.seed)
        if args.trace:
            spans_path = results / f"spans-{args.workload}-seed{args.seed}.jsonl"
            records, metrics, extra, errors = traced_run(
                cli, revtherm, scenarios, scenario_d, work, args.seconds, spans_path)
        else:
            records, metrics, extra, errors = untraced_run(
                cli, scenarios, setup_id, scenario_d, work, args.seconds,
                workloads.MIN_PASSES.get(args.workload, 1))
        failed_ids = set()
        for s, _, err in records:
            if err:
                failed_ids.add(s.id)
                errors.append(f"{s.id}: {err}")
        for s in scenarios:
            err = output_error(s, work / "out" / s.id)
            if err:
                failed_ids.add(s.id)
                errors.append(f"{s.id}: {err}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for s, _, _ in records if s.id in failed_ids)
    encoded = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "error_rate": failed / attempted, "errors": errors[:50],
              **extra, "metrics": encoded}
    (results / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for e in errors[:20]:
        print(f"FAIL {e}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  error_rate {failed / attempted:.4g}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<44} {v:>14.6g} {u}")
    if not args.trace:
        print(f"  scenario_tail_ms is p{extra['tail_percentile']} of {extra['samples']} samples")
        print(f"  times scaled by speed {extra['speed']:.4f} "
              f"(kernel timed {len(extra['kernel_ms'])} times)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": encoded}))


def run_all(args):
    """Every workload in its own process; the last line sums them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{w}/{k}"] = v
    print(json.dumps(total))


def main():
    args = parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
