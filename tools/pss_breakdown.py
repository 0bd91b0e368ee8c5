"""Per-process memory of back-to-back ``html_spans`` jobs.

Usage (from the root of the checkout to measure):
    python tools/pss_breakdown.py SF_DIR [N_JOBS]

Runs N_JOBS (default 10) ``pipelines.html.html_spans(SF_DIR)`` jobs,
each fully consumed, under ``ray.init(num_cpus=4)`` with the object
store size ``perfbench/run.py`` uses. A thread samples the summed PSS of
the driver's process tree (``perfbench/procstat``) every 0.1 s. Prints
JSON: the largest sampled total with every process in it, grouped by
Ray process title (``ray::IDLE``, ``ray::MapWorker(...)``, the fused
task name, ...), and the tree total after each job.
"""

import collections
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.getcwd())
sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))

import procstat  # noqa: E402
from run import OBJECT_STORE_BYTES  # noqa: E402

SERVICES = ("gcs_server", "raylet", "log_monitor", "dashboard", "runtime_env")


def title(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"
    if pid == os.getpid():
        return "driver"
    if cmd.startswith("ray::"):
        return cmd.split()[0]
    return next((s for s in SERVICES if s in cmd), cmd[:40])


def snapshot():
    return [(title(pid), procstat.pss_bytes(pid)) for pid in procstat.tree(os.getpid())]


def grouped(procs):
    out = collections.defaultdict(list)
    for name, pss in procs:
        out[name].append(round(pss / 1e6, 1))
    return {k: sorted(v, reverse=True) for k, v in sorted(out.items(), key=lambda kv: -sum(kv[1]))}


def main(sf_dir: str, n_jobs: int) -> None:
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES)
    rd.DataContext.get_current().enable_progress_bars = False
    from document_parser_private_ray.pipelines.html import html_spans

    peak = {"total": 0, "procs": []}
    done = threading.Event()

    def sample():
        while not done.is_set():
            procs = snapshot()
            total = sum(p for _, p in procs)
            if total > peak["total"]:
                peak.update(total=total, procs=procs)
            time.sleep(0.1)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    after_job = []
    try:
        for _ in range(n_jobs):
            for _ in html_spans(sf_dir).iter_batches(batch_format="pyarrow", batch_size=None):
                pass
            after_job.append(round(sum(p for _, p in snapshot()) / 1e6, 1))
    finally:
        done.set()
        sampler.join(timeout=10)
        ray.shutdown()
    print(json.dumps({
        "jobs": n_jobs,
        "peak_pss_mb": round(peak["total"] / 1e6, 1),
        "peak_processes_pss_mb": grouped(peak["procs"]),
        "total_pss_mb_after_each_job": after_job,
    }, indent=1))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 10)
