"""The wonderco benchmark: seeded query workloads through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kempf-bounds --seed 1 --seconds 20 --trace 0

A run first times the set-up eleven times in fresh interpreters (the first
is a warm-up that also writes the bytecode caches).  It then repeats
passes: each pass is a fresh interpreter that runs the workload's whole
query list once, from a single thread in a closed loop, on cold caches
shared by the queries of that pass.  Passes continue until ``--seconds``
have gone by and, without tracing, at least 100 query latencies are
pooled, so that the 90th percentile has ten samples above it.  With
``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer metrics and the ratio of their wall time to the untraced
ones gives the tracing overhead.

Times are scaled to a fixed reference machine speed (see ``worker.py``);
the raw pass times are printed as well.

Every answer is checked and hashed.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print the same metrics by name with their units, the
output digest and the failures by class.  The exit status is 1, with no
result printed, when a pass cannot run at all (for instance when the
program's sources are missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 10
MIN_P90_SAMPLES = 100
# a run must end within 180 s; no pass starts that could end after this
DEADLINE_S = 165.0


class BenchError(Exception):
    """A pass could not run or did not report."""


def p90(samples: list[float]) -> float:
    """90th percentile; needs at least 100 samples, ten of them above it."""
    if len(samples) < MIN_P90_SAMPLES:
        raise ValueError(f"p90 needs {MIN_P90_SAMPLES} samples, got {len(samples)}")
    return statistics.quantiles(samples, n=10)[-1]


def _worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), mode],
            capture_output=True, text=True, timeout=timeout, env=env,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass exceeded {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with status {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{mode} pass printed no result") from None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(traced: list[dict], plain: list[dict], setups: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced passes."""

    def med(f) -> float:
        return statistics.median(f(p) for p in traced)

    def busy(name: str) -> float:
        return med(lambda p: p["busy_s"].get(name, 0.0))

    def calls(name: str) -> float:
        return med(lambda p: p["calls"].get(name, 0))

    def count(name: str) -> float:
        return med(lambda p: p["counts"].get(name, 0))

    def share(name: str) -> float:
        return med(lambda p: _ratio(p["counts"].get(name, 0), p["queries"]))

    def reuse(p) -> float:
        requests = p["counts"].get("module_requests", 0)
        return 1.0 - p["distinct_modules"] / requests if requests else 0.0

    wall = statistics.median(p["wall_s"] for p in traced)
    return {
        "wondercoh.profile.busy_s": (busy("wondercoh.profile"), "s"),
        "wondercoh.profile.calls": (calls("wondercoh.profile"), "count"),
        "wondercoh.components": (count("components"), "count"),
        "charring.weyl_character.busy_s": (busy("charring.weyl_character"), "s"),
        "charring.weyl_character.calls": (calls("charring.weyl_character"), "count"),
        "charring.weyl_character.terms": (count("weyl_character_terms"), "count"),
        "wondercoh.h_character.busy_s": (busy("wondercoh.h_character"), "s"),
        "wondercoh.serre_dual_check.busy_s": (busy("wondercoh.serre_dual_check"), "s"),
        "wondercoh.module_reuse_ratio": (med(reuse), "1"),
        "wondercoh.module_reuse_query_share": (share("module_reuse_queries"), "1"),
        "schubert.kempf_character.busy_s": (busy("schubert.kempf_character"), "s"),
        "schubert.kempf_character.calls": (count("kempf_calls"), "count"),
        "schubert.kempf_character.hit_ratio": (
            med(lambda p: _ratio(p["counts"].get("kempf_hits", 0), p["counts"].get("kempf_calls", 0))),
            "1",
        ),
        "schubert.kempf_character.hit_query_share": (share("kempf_hit_queries"), "1"),
        "schubert.unstable_character_bounds.busy_s": (busy("schubert.unstable_character_bounds"), "s"),
        "schubert.unstable_character_bounds.upper_terms": (count("upper_terms"), "count"),
        "wondercoh.cross_validate_h3.busy_s": (busy("wondercoh.cross_validate_h3"), "s"),
        "wondercoh.cross_validate_h3.height_cutoff_max": (
            med(lambda p: max(p["cutoffs"], default=0)), "count",
        ),
        "wondercoh.cross_validate_h3.share_above_default_cutoff": (share("above_default_cutoff"), "1"),
        "wondercoh.cross_validate_h3.rows": (count("rows"), "count"),
        "wondercoh.cross_validate_h3.unverified": (count("unverified"), "count"),
        "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "setup.spherical_data_s": (statistics.median(s["spherical_data_s"] for s in setups), "s"),
        "trace.overhead_ratio": (wall / statistics.median(p["wall_s"] for p in plain), "1"),
    }


def _end_to_end(plain: list[dict], setups: list[dict]) -> dict:
    latencies = [x for p in plain for x in p["latencies_ms"]]
    return {
        "setup_s": (statistics.median(s["import_s"] + s["spherical_data_s"] for s in setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "query_p90_ms": (p90(latencies), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    _worker(workload, seed, "setup", remaining())  # warm-up, not timed
    setups = [_worker(workload, seed, "setup", remaining())["setup"] for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if trace:
            done = elapsed >= seconds and bool(traced)
        else:
            done = elapsed >= seconds and sum(p["queries"] for p in plain) >= MIN_P90_SAMPLES
        if done:
            break
        if remaining() < 1.5 * longest:
            raise BenchError(f"the run needs more than {DEADLINE_S:.0f} s")
        mode = "traced" if trace and len(traced) < len(plain) else "plain"
        began = time.perf_counter()
        result = _worker(workload, seed, mode, remaining())
        longest = max(longest, time.perf_counter() - began)
        setups.append(result["setup"])
        (traced if mode == "traced" else plain).append(result)

    passes = plain + traced
    attempted = sum(p["queries"] for p in passes)
    failures = {
        cls: sum(p["failures"][cls] for p in passes) for cls in passes[0]["failures"]
    }
    failed = sum(failures.values())
    digests = sorted({p["digest"] for p in passes})
    metrics = _layer_metrics(traced, plain, setups) if trace else _end_to_end(plain, setups)

    print(
        f"workload {workload} seed {seed}: {len(plain)} untraced and {len(traced)} "
        f"traced passes of {passes[0]['queries']} queries, "
        f"{time.perf_counter() - start:.1f} s"
    )
    for kind, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(
                f"{kind} pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in group)
                + " (raw " + " ".join(f"{p['raw_wall_s']:.3f}" for p in group) + ")"
            )
    print(f"setup raw median {statistics.median(s['raw_s'] for s in setups):.4f} s")
    print(f"digest {workload} seed={seed} sha256={' '.join(digests)}")
    print(
        "failures " + " ".join(f"{cls}={n}" for cls, n in failures.items())
        + f" fail_ratio={failed / attempted:.4g} ({failed}/{attempted})"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
