"""One pass of a benchmark workload in a fresh interpreter.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED MODE`` with MODE one of
``setup`` (time the set-up only), ``plain`` (run the queries) or
``traced`` (run them with spans, then probe the module characters).

The set-up is timed first, before anything else is imported: importing
the program's modules, then ``spherical_data()``.  A pass then runs the
workload's whole query list once on cold caches and prints one JSON
object on stdout.

Times are reported at a fixed reference speed.  The same work takes up to
twice as long from one second to the next on a shared VM, so the worker
times a fixed chunk of dict and tuple work, like the program's own,
around the set-up, before the first query and after every 50 ms of
queries.  Each latency is scaled by ``REFERENCE_S`` over the mean of the
chunk times on either side of it.  The raw times are reported alongside.
"""

import gc
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

REFERENCE_LOOPS = 2000
# the chunk's time at the reference speed, its typical time between the
# queries on the 2-core VM where the benchmark was built
REFERENCE_S = 0.0006
SAMPLE_EVERY_S = 0.05


def _chunk() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_LOOPS):
        key = (i, i * 3 % 17, -i)
        table[key] = table.get(key, 0) + sum(key)
    return time.perf_counter() - start


def reference_time() -> float:
    """The faster of two timings of a fixed chunk of work.

    Taking the faster drops a chunk that an interrupt lands in.  Garbage
    collection is paused meanwhile, so that none of the program's pending
    collections lands in the chunks.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_chunk(), _chunk())
    finally:
        if enabled:
            gc.enable()


def _setup() -> dict:
    before = reference_time()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from wonderco import wondercoh  # imports every layer the benchmark calls

    imported = time.perf_counter()
    wondercoh.spherical_data()
    done = time.perf_counter()
    after = reference_time()
    scale = REFERENCE_S / ((before + after) / 2)
    return {
        "import_s": (imported - start) * scale,
        "spherical_data_s": (done - imported) * scale,
        "raw_s": done - start,
    }


def _run_pass(workload: str, seed: int, traced: bool) -> dict:
    import hashlib
    import json
    import resource
    import traceback

    from wonderco.charring import TruncationError
    from wonderco.wondercoh import BoxTooSmallError

    import inputs
    import queries

    spec = queries.WORKLOADS[workload]
    tracer = queries.Tracer(traced)
    ps = queries.Pass(tracer)
    digest = hashlib.sha256()
    raw_ms: list[float] = []
    scaled_ms: list[float] = []
    failures = {queries.MISMATCH: 0, queries.CERTIFICATION: 0, "error": 0}
    query_list = inputs.WORKLOADS[workload](seed)
    chunk_before = reference_time()
    for index, q in enumerate(query_list):
        tracer.query = index
        start = time.perf_counter()
        try:
            try:
                result = spec.run(q, ps)
            finally:
                end = time.perf_counter()
            failure = spec.check(q, result)
            answer = spec.answer(q, result) if failure is None else {"failure": failure}
        except (TruncationError, BoxTooSmallError):
            failure = queries.CERTIFICATION
            answer = {"failure": failure}
        except Exception:
            # a failure never stops the pass; the traceback goes to stderr
            traceback.print_exc()
            failure = "error"
            answer = {"failure": failure}
        if failure is not None:
            failures[failure] += 1
        raw_ms.append((end - start) * 1000.0)
        if traced:
            tracer.spans.append(("query", index, start, end))
        line = json.dumps([q, answer], sort_keys=True, separators=(",", ":"))
        digest.update(line.encode() + b"\n")
        pending = raw_ms[len(scaled_ms):]
        if sum(pending) >= SAMPLE_EVERY_S * 1000.0 or index == len(query_list) - 1:
            chunk_after = reference_time()
            scale = REFERENCE_S / ((chunk_before + chunk_after) / 2)
            scaled_ms += [ms * scale for ms in pending]
            chunk_before = chunk_after
    wall_s = sum(scaled_ms) / 1000.0
    raw_wall_s = sum(raw_ms) / 1000.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        ps.probe_modules()
    # spans are scaled by the pass's overall ratio
    scale = wall_s / raw_wall_s if raw_wall_s else 1.0
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, _, start, end in tracer.spans:
        busy[name] = busy.get(name, 0.0) + (end - start) * scale
        calls[name] = calls.get(name, 0) + 1
    return {
        "queries": len(query_list),
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "latencies_ms": scaled_ms,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
        "failures": failures,
        "counts": ps.counts,
        "distinct_modules": len(ps.modules),
        "cutoffs": ps.cutoffs,
        "busy_s": busy,
        "calls": calls,
    }


def main(argv: list[str]) -> int:
    workload, seed, mode = argv
    setup = _setup()
    out = {"setup": setup}
    if mode != "setup":
        out.update(_run_pass(workload, int(seed), mode == "traced"))
    import json

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
