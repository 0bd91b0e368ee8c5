"""Benchmark entry point for the parse chain and the HTML extraction surface.

    python3 perfbench/run.py --workload resume_stream --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` runs closed-loop batch jobs
for ``--seconds`` and reports the end-to-end metrics; ``--trace 1``
runs one job with ``Dataset.stats()`` captured per operator plus an
in-process traced pass over a fixed sample, and reports the per-layer
metrics. Both check sampled outputs against the single-document oracle.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run context and every detail. Both also go to ``perfbench/out/results``.
Exit status is 0 when a result was printed, 2 when the engine cannot be
imported, 1 on any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
OBJECT_STORE_BYTES = 512 * 2**20

SPEC = os.path.join(REPO, "BENCHMARK.json")


def load_spec() -> dict:
    """BENCHMARK.json: which metrics each mode reports, with their units."""
    with open(SPEC) as f:
        return json.load(f)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _ray_init(nproc: int):
    import ray
    import ray.data as rd

    tmp = os.path.join(OUT, "ray")
    kwargs = {}
    # Ray puts unix sockets under its temp dir; keep it inside the
    # checkout only when the socket paths stay under the OS limit
    if len(tmp) <= 40:
        kwargs["_temp_dir"] = tmp
    ray.init(address="local", num_cpus=nproc, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return ray


def _stop_ray(ray) -> list:
    """Shut Ray down and wait until every process this run started has
    ended."""
    from multiprocessing import resource_tracker

    import procstat

    # a spawned multiprocessing pool leaves its resource tracker running
    # until this process exits; stop it so it is not waited for below
    resource_tracker._resource_tracker._stop()
    started = procstat.descendants(os.getpid())
    ray.shutdown()
    left = procstat.wait_gone(started, timeout_s=30)
    shutil.rmtree(os.path.join(OUT, "ray"), ignore_errors=True)
    return sorted(pid for pid, _ in left)


def timed(wl, seconds: float):
    """Closed loop: whole jobs back to back until ``seconds`` of measured
    time is spent (the last job is not started when half a typical job
    would overrun)."""
    iters = []
    measured = 0.0
    while True:
        it = wl.iterate(len(iters))
        iters.append(it)
        measured += it.wall_s
        typical = statistics.median(i.wall_s for i in iters)
        if measured + 0.5 * typical >= seconds:
            return iters


def e2e_metrics(iters, setup_once_s: float) -> dict:
    ready = [i.pool_ready_s for i in iters if i.pool_ready_s is not None]
    docs = sum(i.docs for i in iters)
    return {
        "docs_per_s": statistics.median(i.docs / i.wall_s for i in iters),
        "cpu_ms_per_doc": statistics.median(1000.0 * i.cpu_s / max(1, i.docs) for i in iters),
        "setup_s": setup_once_s + (statistics.median(ready) if ready else 0.0),
        "peak_pss_mb": statistics.median(i.pss_peak / 1e6 for i in iters),
        "failed_doc_frac": sum(i.errors for i in iters) / docs if docs else 1.0,
        "span_mismatch_frac": (
            sum(i.mismatched for i in iters) / max(1, sum(i.sampled for i in iters))
        ),
    }


def traced(wl, out_dir: str) -> tuple:
    """One job with per-operator stats, then the in-process layer pass
    and the workload's extra probes (for ``resume_stream``: the no-Ray
    control, the 1-vs-n scaling run and one traced ``job.main`` run)."""
    import raystats
    import workloads

    it = wl.iterate(0)
    m = raystats.layer_metrics(it.op_stats, wl.pool)
    m["failed_doc_frac"] = it.errors / it.docs if it.docs else 1.0
    m["span_mismatch_frac"] = it.mismatched / max(1, it.sampled)
    m.update(wl.layer_metrics(out_dir))
    if wl.name == "resume_stream":
        import control
        import inputs

        ctl = control.run(inputs.corpus_files(wl.corpus), wl.warm_path, wl.pool,
                          batch_size=workloads.STREAM_BATCH)
        ray_ms = 1000.0 * wl.pool * it.wall_s / it.docs
        m["control.noray_ms_per_doc"] = ctl["ms_per_doc"]
        m["control.ray_vs_noray"] = ray_ms / ctl["ms_per_doc"]
        m.update(wl.scaling())
        # the job path is too coarse-grained on a few cores to be a timed
        # workload; one traced job keeps its layers measured
        job = workloads.ResumeJob(wl.root, wl.seed, wl.nproc)
        if wl.factor > 1:
            job.shrink(wl.factor)
        try:
            job.generate()
            job.prepare_gate()
            job_it = job.iterate(0)
            job_layers = job.layer_metrics(out_dir)
        finally:
            job.cleanup()
        m.update(job.checkpoint_metrics(job_it))
        m["pii.anonymize.ms_per_doc"] = job_layers["pii.anonymize.ms_per_doc"]
        for k in ("calls_per_doc", "self_ms_per_doc"):
            m[f"job.fuzzy.extract_one.{k}"] = job_layers[f"fuzzy.extract_one.{k}"]
        return [it, job_it], m
    return [it], m


def main(argv=None) -> int:
    t_main = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a tenth of the input size (self-test only; not comparable)")
    args = p.parse_args(argv)

    sys.path.insert(0, REPO)
    try:
        import pyarrow
        import ray as _ray

        import document_parser_private_ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import the engine or its dependencies: {e}", file=sys.stderr)
        return 2
    import procstat
    import workloads

    spec = load_spec()

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    age_at_main = procstat.process_age_s() - (time.perf_counter() - t_main)
    nproc = len(os.sched_getaffinity(0))
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": nproc, "cpu_model": _cpu_model(),
        "loadavg_before": os.getloadavg(), "ray_version": _ray.__version__,
        "pyarrow_version": pyarrow.__version__, "python": platform.python_version(),
        "git_sha": _git_sha(),
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    trace_dir = os.path.join(OUT, "trace")
    os.makedirs(trace_dir, exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](OUT, args.seed, nproc)
    if args.tiny:
        wl.shrink(10)
    ray = _ray_init(nproc)
    try:
        t = time.perf_counter()
        wl.generate()
        gen_s = time.perf_counter() - t
        wl.setup()
        t_ready = time.perf_counter()
        wl.prepare_gate()
        gate_prep_s = time.perf_counter() - t_ready
        setup_once_s = age_at_main + (t_ready - t_main) - gen_s
        if args.trace:
            iters, metrics = traced(wl, trace_dir)
            metrics["corpus.gen_s"] = gen_s
        else:
            iters = timed(wl, args.seconds)
            metrics = e2e_metrics(iters, setup_once_s)
    finally:
        wl.cleanup()
        survivors = _stop_ray(ray)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted = sum(i.docs for i in iters)
    failed = sum(i.errors for i in iters)
    correct = failed == 0 and all(i.mismatched == 0 for i in iters) and not survivors
    context.update({
        "loadavg_after": os.getloadavg(), "inputs": wl.input_info, "pool": wl.pool,
        "corpus.gen_s": gen_s, "setup.once_s": setup_once_s, "gate.prep_s": gate_prep_s,
        "iterations": [
            {"docs": i.docs, "wall_s": i.wall_s, "cpu_s": i.cpu_s,
             "pss_peak_mb": i.pss_peak / 1e6, "pool_ready_s": i.pool_ready_s,
             "teardown_s": i.teardown_s, "errors": i.errors, "sampled": i.sampled,
             "mismatched": i.mismatched}
            for i in iters
        ],
        "leftover_pids": survivors,
        "metrics_detail": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    })
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": units[k]}
                    for k in reported},
    }
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
