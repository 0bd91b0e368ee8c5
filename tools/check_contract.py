"""Drive the driver contract end-to-end like the verify harness does:
ray.init first, import __ray_entry__, run entry() + every query at
sf0.01, compare SQL-oracled ones against DuckDB (rowcount + sorted
column names + order-insensitive value hash).

    python tools/check_contract.py [SF_DIR] [--only q1,q2] [--json PATH]

``--json PATH`` writes one record per query ({status, rows, hash,
wall_s}) plus the CPU count and git SHA of the checkout."""
import hashlib
import json
import subprocess
import sys
import time

import duckdb
import pandas as pd
import ray

import os
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")

ONLY = None
if "--only" in sys.argv:
    i = sys.argv.index("--only")
    ONLY = set(sys.argv[i + 1].split(","))
    del sys.argv[i : i + 2]
JSON_PATH = None
if "--json" in sys.argv:
    i = sys.argv.index("--json")
    JSON_PATH = sys.argv[i + 1]
    del sys.argv[i : i + 2]
SF = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
# data-dependent oracles (corpus paths, trained centroids) must derive
# from the SAME scale this sweep verifies at
os.environ["GRAFT_VERIFY_SF"] = SF

import __ray_entry__ as entry_mod
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_df(res):
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False, name=None)
    )
    return hashlib.sha256(str(rows).encode()).hexdigest()[:16]


# 1. entry()
if ONLY is None:
    t0 = time.time()
    res = entry_mod.entry()
    df = to_df(res)
    print(f"entry(): {len(df)} rows, schema={sorted(df.columns)}, {time.time()-t0:.1f}s")
    assert len(df) > 0

# 2. queries vs oracle
con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")

qs = entry_mod.queries()
oracles = entry_mod.oracle_sql()
print(f"{len(qs)} queries, {len(oracles)} oracled")
fails = []
records = {}
for name, fn in qs.items():
    if ONLY is not None and name not in ONLY:
        continue
    t0 = time.time()
    try:
        rdf = to_df(fn(SF))
    except Exception as e:
        fails.append((name, f"RAY ERROR {type(e).__name__}: {e}"))
        print(f"  {name}: RAY ERROR {e}")
        records[name] = {"status": "ERROR", "rows": None, "hash": None,
                         "wall_s": round(time.time() - t0, 3)}
        continue
    dt = time.time() - t0
    records[name] = {"status": "ROWS_ONLY", "rows": len(rdf),
                     "hash": value_hash(rdf), "wall_s": round(dt, 3)}
    if name in oracles:
        odf = con.execute(oracles[name]).df()
        rn, on = len(rdf), len(odf)
        rc, oc = sorted(rdf.columns), sorted(odf.columns)
        rh, oh = value_hash(rdf), value_hash(odf)
        ok = rn == on and rc == oc and rh == oh
        records[name]["status"] = "OK" if ok else "MISMATCH"
        print(f"  {name}: {'OK' if ok else 'MISMATCH'} rows={rn}/{on} cols_eq={rc==oc} hash_eq={rh==oh} ({dt:.1f}s)")
        if not ok:
            fails.append((name, f"rows {rn}/{on} cols {rc} vs {oc} hash {rh} vs {oh}"))
            if rc == oc and rn == on:
                m = rdf[sorted(rdf.columns)].round(6).sort_values(sorted(rdf.columns)).reset_index(drop=True)
                o = odf[sorted(odf.columns)].round(6).sort_values(sorted(odf.columns)).reset_index(drop=True)
                diff = (m != o) & ~(m.isna() & o.isna())
                print(diff.sum())
                bad = diff.any(axis=1)
                print("ray:", m[bad].head(3).to_dict("records"))
                print("sql:", o[bad].head(3).to_dict("records"))
    else:
        print(f"  {name}: rows-only {len(rdf)} rows ({dt:.1f}s)")
        if len(rdf) == 0:
            fails.append((name, "0 rows"))
            records[name]["status"] = "EMPTY"

print("\nFAILS:", fails if fails else "none")
if JSON_PATH:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=here, capture_output=True, text=True
        ).stdout.strip()

    with open(JSON_PATH, "w") as f:
        json.dump(
            {"sf_dir": SF, "nproc": len(os.sched_getaffinity(0)),
             "git_sha": git("rev-parse", "HEAD") or None,
             # uncommitted edits to tracked files on top of git_sha
             "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
             "n_fails": len(fails), "queries": records},
            f, indent=1, sort_keys=True,
        )

ray.shutdown()
sys.exit(1 if fails else 0)
