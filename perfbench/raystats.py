"""Per-operator numbers from ``Dataset.stats()`` of executed datasets.

Operators are classified by name: ``ReadParquet`` is the read, an
``ActorPoolMapOperator`` UDF (``ParseDocuments`` or ``HtmlMainContent``)
is the parse operator, ``Write`` is the write. Timestamps are
``time.perf_counter`` values taken inside the Ray workers, which on
Linux share the driver's monotonic clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

PARSE_UDFS = ("ParseDocuments", "HtmlMainContent")
MB = 1e6


def _summary(ds):
    # the public ``Dataset.stats()`` is this summary rendered as text
    write_ds = getattr(ds, "_write_ds", None)
    src = write_ds if write_ds is not None else ds
    return src._plan.stats().to_summary()


def collect(ds) -> Tuple[List, int]:
    """(every ``OperatorStatsSummary`` of ``ds`` and its parents, bytes
    spilled). Keeping these instead of the dataset lets Ray release the
    dataset's actor pool."""
    top = _summary(ds)
    out, seen, todo = [], set(), [top]
    while todo:
        s = todo.pop()
        for op in s.operators_stats:
            key = (op.operator_name, op.earliest_start_time)
            if key not in seen:
                seen.add(key)
                out.append(op)
        todo.extend(s.parents or [])
    return out, int(top.dataset_bytes_spilled or 0)


def _kind(name: str) -> Optional[str]:
    if any(u in name for u in PARSE_UDFS):
        return "parse_op"
    if "ReadParquet" in name.split("->")[0]:
        return "read"
    if name.startswith("Write"):
        return "write"
    return None


def first_parse_start(collected) -> Optional[float]:
    """Earliest parse-task start (perf_counter seconds) over ``collect``
    results."""
    starts = [
        op.earliest_start_time
        for ops, _ in collected
        for op in ops
        if _kind(op.operator_name) == "parse_op" and op.earliest_start_time
    ]
    return min(starts) if starts else None


def layer_metrics(collected, pool: int) -> Dict[str, float]:
    """``ray.*`` per-layer metrics summed over ``collect`` results (one
    per partition for the job workload)."""
    acc = {k: {"wall": 0.0, "out": 0.0, "task_wall": 0.0, "task_cpu": 0.0,
               "task_max": 0.0, "blocks": 0.0} for k in ("read", "parse_op", "write")}
    spilled = 0
    for ops, spill in collected:
        spilled += spill
        for op in ops:
            kind = _kind(op.operator_name)
            if kind is None:
                continue
            a = acc[kind]
            a["wall"] += max(0.0, op.latest_end_time - op.earliest_start_time)
            a["out"] += (op.output_size_bytes or {}).get("sum", 0.0)
            wall = op.wall_time or {}
            a["task_wall"] += wall.get("sum", 0.0)
            a["task_cpu"] += (op.cpu_time or {}).get("sum", 0.0)
            a["task_max"] = max(a["task_max"], wall.get("max", 0.0))
            if wall.get("mean"):
                a["blocks"] += wall["sum"] / wall["mean"]
    p = acc["parse_op"]
    # Ray aggregates task wall per output block; the parse operator
    # emits one block per task
    mean_task = p["task_wall"] / p["blocks"] if p["blocks"] else 0.0
    return {
        "ray.read.wall_s": acc["read"]["wall"],
        "ray.read.out_mb": acc["read"]["out"] / MB,
        "ray.parse_op.task_wall_s": p["task_wall"],
        "ray.parse_op.task_cpu_s": p["task_cpu"],
        "ray.parse_op.busy_frac": (
            p["task_wall"] / (pool * p["wall"]) if p["wall"] and pool else 0.0
        ),
        "ray.parse_op.task_skew": p["task_max"] / mean_task if mean_task else 0.0,
        "ray.write.wall_s": acc["write"]["wall"],
        "ray.write.out_mb": acc["write"]["out"] / MB,
        "ray.spilled_mb": spilled / MB,
    }

