#!/usr/bin/env python3
"""Repository benchmark: simulator throughput, memory and Vidur-Search time.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-rr --seed 1 --seconds 30 --trace 0

The first call builds perfbench/ (the simulator library from src/ plus the
measurement program) into $CARGO_TARGET_DIR or .bench_build/. A run then
launches one measurement process per sample until --seconds have passed, each on
an input picked by --seed from the pool recorded in perfbench/expected/,
checks every sample's simulated outputs against the recorded ones, and
prints as its last stdout line one JSON object {"correct", "attempted",
"failed", "metrics"}: the end-to-end metrics (medians over the samples)
with --trace 0, the per-layer metrics of one traced process with --trace 1.
See perfbench/NOTES.md.

    python3 perfbench/run.py --record-expected 0-63 [--workload NAME]

re-records the expected outputs (the input pool) for those input seeds.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"

# Why each workload exists; printed beside every result (NOTES.md has more).
WORKLOADS = {
    "fleet-rr": "64 TP1 vLLM replicas, round-robin, chat1m Poisson 200 qps, "
                "120k requests: per-request cost, finalize sorts and the "
                "sharded engine's merge dominate",
    "session-cache": "4 TP1 Sarathi replicas, least-outstanding routing, "
                     "prefix cache, session-chat 20k requests: central path, "
                     "cache attach/evict per admission, no merge",
    "search": "Vidur-Search over 24 a100 configs on chat1m, 150-request "
              "probes, 2 workers: many short cold simulations",
}
# Reference replay for execution.fidelity_err_pct (too slow at fleet scale).
FIDELITY = {"session-cache"}

E2E_UNITS = {
    "setup_s": "s",
    "sim_requests_per_s": "1/s",
    "ns_per_decode_token": "ns",
    "search_wall_s": "s",
    "peak_rss_mb": "MB",
    "rss_bytes_per_request": "B",
}
LAYER_UNITS = {
    "profiler.profile_s": "s",
    "estimator.train_s": "s",
    "workload.generate_ms": "ms",
    "sim.construct_ms": "ms",
    "sim.run_ms": "ms",
    "sim.self_ms": "ms",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "execution.stage_timing_calls": "count",
    "execution.predict_ms": "ms",
    "execution.memo_hit_rate": "ratio",
    "execution.fidelity_err_pct": "%",
    "estimator.lookups": "count",
    "estimator.cache_hit_rate": "ratio",
    "metrics.finalize_ms": "ms",
    "metrics.token_samples": "count",
    "mem.construct_mb": "MB",
    "mem.run_mb": "MB",
    "mem.finalize_mb": "MB",
    "scheduler.batches": "count",
    "scheduler.preemptions": "count",
    "scheduler.admissions": "count",
    "scheduler.mean_batch_size": "count",
    "kvcache.hit_rate": "ratio",
    "kvcache.prefill_tokens_saved_frac": "ratio",
    "kvcache.evicted_blocks": "count",
    "search.configs": "count",
    "search.probes": "count",
    "search.find_capacity_ms.p50": "ms",
    "search.find_capacity_ms.p90": "ms",
    "search.offline_ms": "ms",
    "search.parallel_efficiency": "ratio",
    "api.result_json_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.gap_ms": "ms",
}

MIN_SAMPLES = 3          # untraced processes per run, whatever --seconds says
LATENCY_TOLERANCE = 0.02  # the golden-spec tests' relative tolerance
SAMPLE_TIMEOUT_S = 150
STRIDE = 11  # input-pool offset between runs of consecutive seeds


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ------------------------------------------------------------ statistics

def quantile(values, q):
    """Linear-interpolation quantile, q in [0, 1] (vidur::SampleSeries)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def median(values):
    return quantile(values, 0.5)


# ---------------------------------------------------------- output checks

def compare_outputs(actual, expected, rel_tol, path="$"):
    """Mismatches of `actual` against `expected`, one message each.

    Every member of `expected` must exist in `actual` with the same shape.
    Strings, bools and integers match exactly; floats match within
    `rel_tol` of the expected value (0 demands equality). Members only
    `actual` has are ignored.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        errors = []
        for key, value in expected.items():
            if key not in actual:
                errors.append(f"{path}.{key}: missing")
            else:
                errors += compare_outputs(actual[key], value, rel_tol,
                                          f"{path}.{key}")
        return errors
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        errors = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            errors += compare_outputs(a, e, rel_tol, f"{path}[{i}]")
        return errors
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if actual == expected or \
                abs(actual - expected) <= rel_tol * abs(expected):
            return []
        return [f"{path}: {actual!r} vs expected {expected!r} "
                f"(tolerance {rel_tol:g})"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} vs expected {expected!r}"]
    return []


def invariant_errors(workload, outputs):
    """Checks that hold on every input: nothing lost, shed or unfinished."""
    exact = outputs["exact"]
    if workload == "search":
        if not any(q > 0 for q in outputs["approx"]["capacity_qps"]):
            return ["no feasible config found"]
        return []
    errors = []
    if exact["num_completed"] != exact["num_requests"]:
        errors.append(f"completed {exact['num_completed']} of "
                      f"{exact['num_requests']} requests")
    if exact["num_lost"] or exact["num_shed"]:
        errors.append(f"lost {exact['num_lost']}, shed {exact['num_shed']}")
    return errors


def expected_path(workload):
    return os.path.join(HERE, "expected", workload + ".json")


def check_outputs(workload, outputs, recorded):
    """All mismatches of one simulation's outputs (empty = correct)."""
    return (invariant_errors(workload, outputs) +
            compare_outputs(outputs["exact"], recorded["exact"], 0.0) +
            compare_outputs(outputs["approx"], recorded["approx"],
                            LATENCY_TOLERANCE))


def input_seed(run_seed, pool, i):
    """Input seed of sample `i` of a run with `run_seed`.

    Every sample replays a recorded input, so its outputs are checked
    exactly, and the samples of one run spread over several inputs, so the
    run's medians do not hinge on one input's amount of work. Runs with
    consecutive seeds start STRIDE inputs apart.
    """
    return pool[(run_seed * STRIDE + i) % len(pool)]


# ------------------------------------------------------------- processes

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (first time) and build `perfbench`; return its path."""
    out = build_dir()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError(f"no simulator sources at {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run_perfbench(binary, args):
    """Run one perfbench process; its parsed JSON document, or None."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench timed out: {args}")
        return None
    if proc.returncode != 0:
        log(f"perfbench failed ({proc.returncode}): {args}\n{proc.stderr}")
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        log(f"perfbench printed no JSON: {args}")
        return None


def spec_path(workload):
    return os.path.join(HERE, "workloads", workload + ".json")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


# ---------------------------------------------------------------- metrics

def e2e_metrics(samples):
    """Medians of the end-to-end metrics over untraced samples."""
    def med(f):
        return median([f(s) for s in samples])
    return {
        "setup_s": med(lambda s: s["setup_s"]),
        "sim_requests_per_s": med(lambda s: s["sim_requests"] / s["wall_s"]),
        "ns_per_decode_token":
            med(lambda s: s["wall_s"] * 1e9 / s["decode_tokens"]),
        "search_wall_s": med(lambda s: s["wall_s"]),
        "peak_rss_mb": med(lambda s: s["peak_rss_bytes"] / 1e6),
        "rss_bytes_per_request":
            med(lambda s: s["run_rss_growth_bytes"] / s["sim_requests"]),
    }


def search_layers(traced, evaluated):
    """search.* figures and the serial span sum of the traced sweep.

    `evaluated` flags the configs whose find_capacity counts towards the
    serial sum; every config's offline probe counts.
    """
    s = traced["search"]
    capacity_ms = s["find_capacity_ms"]
    serial_ms = sum(s["offline_ms"]) + sum(
        ms for ms, used in zip(capacity_ms, evaluated) if used)
    return {
        "search.configs": float(len(s["configs"])),
        "search.probes": float(sum(s["probes"])),
        "search.find_capacity_ms.p50": quantile(capacity_ms, 0.5),
        "search.find_capacity_ms.p90": quantile(capacity_ms, 0.9),
        "search.offline_ms": sum(s["offline_ms"]),
    }, serial_ms


def layer_metrics(workload, traced, untraced, workers):
    """Per-layer metrics of a traced run beside its untraced reference."""
    layers = dict(traced["layers"])
    if workload == "search":
        # The serial sum covers the calls the untraced search made: the
        # configs it did not prune spent more than their offline probe.
        evaluated = [p > 1 for p in untraced["outputs"]["exact"]["probes"]]
        search, spans_ms = search_layers(traced, evaluated)
        # Timer overhead against an untraced single-worker search.
        base_ms = traced["serial_search_s"] * 1e3
        efficiency = spans_ms / (untraced["wall_s"] * 1e3 * workers)
    else:
        search, _ = search_layers(traced, [True])
        spans_ms = (layers["workload.generate_ms"] +
                    layers["sim.construct_ms"] + layers["sim.run_ms"])
        base_ms = untraced["wall_s"] * 1e3
        efficiency = spans_ms / base_ms  # one worker
    layers.update(search)
    layers["search.parallel_efficiency"] = efficiency
    layers["trace.overhead_pct"] = (spans_ms / base_ms - 1.0) * 100.0
    layers["trace.gap_ms"] = base_ms - spans_ms
    missing = set(LAYER_UNITS) - set(layers)
    if missing:
        raise RuntimeError(f"traced run lacks {sorted(missing)}")
    return {k: layers[k] for k in LAYER_UNITS}


def traced_errors(workload, traced, untraced):
    """The traced run's simulated outputs must equal the untraced run's."""
    if workload != "search":
        return compare_outputs(traced["outputs"], untraced["outputs"], 0.0)
    errors = compare_outputs(traced["serial_outputs"], untraced["outputs"],
                             0.0)
    exact = untraced["outputs"]["exact"]
    capacity = untraced["outputs"]["approx"]["capacity_qps"]
    s = traced["search"]
    if s["configs"] != exact["configs"]:
        return errors + ["traced search enumerated other configs"]
    for i, probes in enumerate(exact["probes"]):
        if probes > 1 and s["capacity_qps"][i] != capacity[i]:
            errors.append(f"config {exact['configs'][i]}: traced capacity "
                          f"{s['capacity_qps'][i]!r} vs {capacity[i]!r}")
    return errors


# ------------------------------------------------------------------ main

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_expected(binary, workloads, seeds):
    for workload in workloads:
        path = expected_path(workload)
        recorded = {}
        if os.path.exists(path):
            with open(path) as f:
                recorded = json.load(f)["seeds"]
        for seed in seeds:
            sample = run_perfbench(binary, ["sample", spec_path(workload),
                                         str(seed)])
            if sample is None:
                raise RuntimeError(f"{workload} seed {seed} failed")
            errors = invariant_errors(workload, sample["outputs"])
            if errors:
                raise RuntimeError(f"{workload} seed {seed}: {errors}")
            recorded[str(seed)] = sample["outputs"]
            log(f"recorded {workload} seed {seed}")
        ordered = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"seeds": ordered}, f, indent=1)
            f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", metavar="SEEDS",
                        help="re-record expected outputs, e.g. 0-63")
    args = parser.parse_args()

    binary = build()
    if args.record_expected:
        record_expected(binary, [args.workload] if args.workload else
                        list(WORKLOADS), parse_seeds(args.record_expected))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = args.workload
    with open(expected_path(workload)) as f:
        recorded = json.load(f)["seeds"]
    with open(spec_path(workload)) as f:
        workers = json.load(f).get("num_threads", 1)
    spec = spec_path(workload)
    pool = sorted(recorded, key=int)

    attempted = failed = 0
    errors = []

    def account(outputs, seed):
        nonlocal attempted, failed
        attempted += 1
        errs = (["perfbench process failed"] if outputs is None else
                check_outputs(workload, outputs, recorded[seed]))
        if errs:
            failed += 1
            errors.extend(errs)

    samples, seeds = [], []
    start = time.monotonic()
    while len(samples) < MIN_SAMPLES or \
            time.monotonic() - start < args.seconds:
        seed = input_seed(args.seed, pool, len(samples))
        sample = run_perfbench(binary, ["sample", spec, seed])
        account(sample and sample["outputs"], seed)
        if sample is None:
            break
        samples.append(sample)
        seeds.append(seed)
        if args.trace:
            break  # one untraced reference for the traced run

    metrics = {}
    if args.trace and samples:
        traced = run_perfbench(binary, ["trace", spec, seeds[0]] +
                            (["--fidelity"] if workload in FIDELITY else []))
        attempted += 1
        if traced is None:
            failed += 1
            errors.append("traced run failed")
        else:
            errs = traced_errors(workload, traced, samples[0])
            if errs:
                failed += 1
                errors.extend(errs)
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                       for k, v in layer_metrics(workload, traced, samples[0],
                                                 workers).items()}
    elif samples:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e_metrics(samples).items()}

    for err in errors[:20]:
        log(f"check failed: {err}")
    print(json.dumps({
        "workload": workload, "why": WORKLOADS[workload], "seed": args.seed,
        "input_seeds": [int(s) for s in seeds],
        "nproc": os.cpu_count(), "build_type": BUILD_TYPE, "git_sha": git_sha(),
    }))
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        failed += 1
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError) as exc:
        log(f"perfbench: {exc}")
        sys.exit(2)
