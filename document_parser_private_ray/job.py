"""Cluster job entrypoint (north rule: "runs via ray job submit on a
fixed-size multi-node Ray cluster").

Submit the flagship parse chain as a Ray job:

    ray job submit --working-dir . -- \
        python -m document_parser_private_ray.job \
            --input /data/corpus --output /data/parsed --run-id run-1

The job is resumable: output is committed per partition with lineage
counters (``state/checkpoint.py``); re-submitting the same command after
a failure skips committed partitions. Ray is initialised only if the
driver hasn't already done so (``ray job submit`` runs this script on
the cluster's head node where ``ray.init()`` attaches to the running
cluster; under the test harness the session fixture owns Ray).
"""

from __future__ import annotations

import argparse
import glob
import json
import os


def main(argv=None) -> dict:
    p = argparse.ArgumentParser(
        prog="document_parser_private_ray.job",
        description="Resumable corpus parse job (read -> parse chain -> "
        "partition-committed parquet with lineage).",
    )
    p.add_argument("--input", required=True, help="corpus directory of parquet files")
    p.add_argument("--output", required=True, help="output directory (parts/ + lineage/)")
    p.add_argument("--run-id", default="run-0")
    p.add_argument("--files-per-partition", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--with-pii", action="store_true")
    p.add_argument(
        "--warm-sample", type=int, default=2000,
        help="documents sampled for the driver warm-cache pass (0 = off)",
    )
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"))

    from .pipelines.resume import parse_resumes, read_corpus
    from .state.checkpoint import committed_partitions, lineage_table, run_resumable

    files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")

    warm_ref = None
    if args.warm_sample > 0:
        # one driver-side oracle pass over a deterministic sample; the
        # resulting pure-function memo caches are broadcast once and
        # seed every worker at steady-state throughput (BASELINE.md)
        from .oracle.document import DocumentOracle

        sample = read_corpus(files[0]).limit(args.warm_sample)
        warm_ref = ray.put(DocumentOracle(with_pii=args.with_pii).warm(sample.iter_rows()))

    def pipeline_fn(ds):
        return parse_resumes(
            ds,
            with_pii=args.with_pii,
            batch_size=args.batch_size,
            warm_caches=warm_ref,
        )

    summary = run_resumable(
        files,
        args.output,
        pipeline_fn,
        run_id=args.run_id,
        files_per_partition=args.files_per_partition,
    )
    lineage = lineage_table(args.output)
    summary["committed_partitions"] = len(committed_partitions(args.output))
    summary["doc_count"] = sum(lineage["doc_count"].to_pylist())
    summary["span_count"] = sum(lineage["span_count"].to_pylist())
    summary["error_count"] = sum(lineage["error_count"].to_pylist())
    print(json.dumps(summary))
    return summary


def checkpoint_lineage(src: str, export: str):
    """The resumable job end to end on a small corpus: parse 120
    documents in 6 files (written once under ``src``) through
    ``run_resumable`` twice, 2 files per partition, into an atomic
    export at ``export`` — the second pass must skip every committed
    partition — and return the lineage counters."""
    from .pipelines.resume import parse_resumes
    from .sources.corpus import write_corpus_local
    from .state import atomic_export
    from .state.checkpoint import lineage_table, run_resumable

    if not os.path.exists(os.path.join(src, "_COMPLETE")):
        write_corpus_local(src, 120, seed=42, rows_per_file=20)
        with open(os.path.join(src, "_COMPLETE"), "w") as f:
            f.write("ok")
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))

    def write(target: str):
        for run_id in ("r1", "r2"):
            summary = run_resumable(
                files, target, parse_resumes, run_id=run_id, files_per_partition=2
            )
        if summary["processed"]:
            raise RuntimeError(f"the rerun processed {summary['processed']} partitions")

    out = atomic_export(export, write)
    return lineage_table(out).select(
        ["partition_id", "doc_count", "span_count", "error_count", "status", "run_id"]
    )


if __name__ == "__main__":
    main()
