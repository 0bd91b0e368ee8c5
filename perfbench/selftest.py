"""Self-test of the benchmark itself (not of the engine).

    python3 perfbench/selftest.py

1. One seed generates byte-identical inputs twice (resume corpus and
   HTML documents table).
2. The generated HTML table's text-length deciles are within 10% of
   those measured on the sf0.1 testdata ``documents`` table.
3. The correctness gate passes true outputs and flags one deliberately
   corrupted row, for resume and for HTML outputs.
4. ``layers.json`` maps every per-layer metric of BENCHMARK.json once.
5. A tiny run of every workload, in both modes, prints every metric
   BENCHMARK.json names for that mode, with its unit, and passes the gate.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, REPO)

import gate  # noqa: E402
import inputs  # noqa: E402

SCRATCH = os.path.join(HERE, "out", "selftest")


def _digest(path: str) -> str:
    h = hashlib.sha256()
    for base, _, names in sorted(os.walk(path)):
        for name in sorted(names):
            if name.endswith(".parquet"):
                with open(os.path.join(base, name), "rb") as f:
                    h.update(name.encode() + f.read())
    return h.hexdigest()


def check_determinism() -> None:
    digests = []
    for k in range(2):
        root = os.path.join(SCRATCH, f"gen-{k}")
        shutil.rmtree(root, ignore_errors=True)
        corpus = inputs.resume_corpus(root, 300, seed=7, rows_per_file=50)
        pages = inputs.html_documents(root, 200, seed=7)
        digests.append((_digest(corpus), _digest(pages)))
    assert digests[0] == digests[1], f"same seed, different bytes: {digests}"
    other = inputs.resume_corpus(os.path.join(SCRATCH, "gen-other"), 300, seed=8, rows_per_file=50)
    assert _digest(other) != digests[0][0], "different seeds gave identical corpora"
    print("ok: one seed gives byte-identical inputs twice")


def check_html_mix() -> None:
    import statistics

    import pyarrow.parquet as pq

    path = inputs.html_documents(os.path.join(SCRATCH, "mix"), 3000, seed=7)
    n_chars = pq.read_table(os.path.join(path, "documents.parquet"))["n_chars"].to_pylist()
    got = statistics.quantiles(n_chars, n=10)
    want = inputs.SF01_NCHARS_DECILES
    assert all(abs(g / w - 1) <= 0.10 for g, w in zip(got, want)), (got, want)
    print("ok: generated page lengths follow the sf0.1 documents deciles")


def check_gate() -> None:
    import pyarrow as pa

    from document_parser_private_ray.sources.corpus import CORPUS_SCHEMA
    from document_parser_private_ray.stages.parse import ParseDocuments

    corpus = inputs.resume_corpus(os.path.join(SCRATCH, "gen-0"), 300, seed=7, rows_per_file=50)
    rows = inputs.read_rows(corpus, limit=60)
    expected = gate.expected_resumes(rows, with_pii=False)
    out = ParseDocuments()(pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA)).to_pylist()
    assert gate.resume_mismatches(expected, out) == [], "gate rejects true outputs"
    bad = copy.deepcopy(out)
    victim = next(r for r in bad if r["out_spans"])
    victim["out_spans"][0]["text"] += " (corrupted)"
    assert gate.resume_mismatches(expected, bad) == [victim["doc_id"]], "corrupt span missed"
    bad = copy.deepcopy(out)
    bad[3]["resume"]["contact"]["email"] = "nobody@example.invalid"
    assert gate.resume_mismatches(expected, bad) == [bad[3]["doc_id"]], "corrupt resume missed"

    pages = {i: (f"alpha beta gamma delta {i} " * 12, "src0") for i in range(5)}
    exp_html = gate.expected_html(pages)
    rows_html = [
        {"doc_id": i, "span_offset": j, "kind": k, "text": t, "media_ref": m}
        for i, spans in exp_html.items() for j, (k, t, m) in enumerate(spans)
    ]
    assert gate.html_mismatches(exp_html, rows_html) == [], "gate rejects true HTML spans"
    rows_html[-1] = dict(rows_html[-1], text="boilerplate leak")
    assert gate.html_mismatches(exp_html, rows_html) == [rows_html[-1]["doc_id"]]
    print("ok: the gate passes true rows and flags a corrupted one")


def check_layer_map() -> None:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    with open(os.path.join(HERE, "layers.json")) as f:
        mapped = [n for entry in json.load(f)["layers"] for n in entry["metrics"]]
    assert sorted(mapped) == sorted(names), set(mapped) ^ set(names)
    print("ok: layers.json maps every per-layer metric exactly once")


def check_tiny_runs() -> None:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", wl, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, f"{wl} trace {trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            assert result["correct"] and result["failed"] == 0, (wl, trace, result)
            want = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            assert sorted(got) == sorted(m["name"] for m in want), (wl, trace, sorted(got))
            for m in want:
                assert got[m["name"]]["unit"] == m["unit"], (wl, m["name"])
                assert isinstance(got[m["name"]]["value"], float), (wl, m["name"])
            print(f"ok: tiny {wl} --trace {trace} prints all {len(want)} metrics with units")


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        check_determinism()
        check_html_mix()
        check_gate()
        check_layer_map()
        check_tiny_runs()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
