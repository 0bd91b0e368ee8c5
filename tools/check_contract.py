"""Drive the driver contract end-to-end like the verify harness does:
ray.init first, import __ray_entry__, run entry() + every query at
sf0.01, compare SQL-oracled ones against DuckDB (rowcount + sorted
column names + order-insensitive value hash).

    python tools/check_contract.py [SF_DIR] [--only q1,q2] [--changed REV] [--json PATH]

``--json PATH`` writes one record per query ({status, rows, hash,
wall_s}) plus the CPU count and git SHA of the checkout.

``--changed REV`` sweeps only the queries a change since git revision
``REV`` can reach: every package module changed since REV (committed,
staged, unstaged or untracked), then every package module importing one
of them, directly or transitively; a query is selected when its
``_q_*`` body, or a ``__ray_entry__`` helper it calls, imports one of
those modules. When ``__ray_entry__.py`` itself changed, queries whose
function closure or oracle SQL differs from REV's are selected too.
The selected names are printed before the sweep."""
import ast
import hashlib
import inspect
import json
import subprocess
import sys
import time
import types

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
CHANGED = None
if "--changed" in sys.argv:
    i = sys.argv.index("--changed")
    CHANGED = sys.argv[i + 1]
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
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "document_parser_private_ray"


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=HERE, capture_output=True, text=True
    ).stdout.strip()


def package_modules() -> dict:
    """Dotted module name -> path for every .py file of the package."""
    mods = {}
    for root, _, files in os.walk(os.path.join(HERE, PKG)):
        for f in files:
            if f.endswith(".py"):
                rel = os.path.relpath(os.path.join(root, f), HERE)[:-3]
                name = rel.replace(os.sep, ".")
                mods[name.removesuffix(".__init__")] = rel + ".py"
    return mods


def imported_modules(tree, package: str, mods) -> set:
    """Package modules an AST imports anywhere (function-level imports
    included), relative imports resolved against ``package``, with the
    parent packages an import executes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for n in names:
            while n:
                if n in mods:
                    out.add(n)
                n = n.rpartition(".")[0]
    return out


def changed_queries(rev: str, qs: dict, oracles: dict) -> set:
    mods = package_modules()
    files = set(git("diff", "--name-only", rev).splitlines())
    files |= set(git("ls-files", "--others", "--exclude-standard").splitlines())
    affected = {m for m, path in mods.items() if path in files}
    graph = {}
    for m, path in mods.items():
        pkg = m if path.endswith("__init__.py") else m.rpartition(".")[0]
        with open(os.path.join(HERE, path)) as f:
            graph[m] = imported_modules(ast.parse(f.read()), pkg, mods)
    grew = True
    while grew:
        more = {m for m, deps in graph.items() if deps & affected} - affected
        affected |= more
        grew = bool(more)

    entry_funcs = {
        k: v for k, v in vars(entry_mod).items()
        if inspect.isfunction(v) and v.__module__ == entry_mod.__name__
    }
    old_src = {}
    if "__ray_entry__.py" in files:
        old_text = git("show", f"{rev}:__ray_entry__.py")
        old_src = {
            n.name: ast.dump(n) for n in ast.parse(old_text).body
            if isinstance(n, ast.FunctionDef)
        }
        old_mod = types.ModuleType("_ray_entry_at_rev")
        exec(compile(old_text, f"__ray_entry__.py@{rev}", "exec"), old_mod.__dict__)
        old_oracles = old_mod.oracle_sql()

    def closure(fn, seen):
        """``fn`` and every ``__ray_entry__`` function it names, transitively."""
        tree = ast.parse(inspect.getsource(fn))
        seen[fn.__name__] = tree
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in entry_funcs and node.id not in seen:
                closure(entry_funcs[node.id], seen)
        return seen

    picked = set()
    for name, fn in qs.items():
        trees = closure(fn, {})
        if any(imported_modules(t, "", mods) & affected for t in trees.values()):
            picked.add(name)
        elif "__ray_entry__.py" in files and (
            any(old_src.get(f) != ast.dump(t.body[0]) for f, t in trees.items())
            or old_oracles.get(name) != oracles.get(name)
        ):
            picked.add(name)
    return picked



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
if ONLY is None and CHANGED is None:
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
if CHANGED is not None:
    picked = changed_queries(CHANGED, qs, oracles)
    ONLY = picked if ONLY is None else ONLY & picked
    print(f"--changed {CHANGED}: {len(ONLY)} queries: {', '.join(sorted(ONLY))}")
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
    with open(JSON_PATH, "w") as f:
        json.dump(
            {"sf_dir": SF, "nproc": len(os.sched_getaffinity(0)),
             "git_sha": git("rev-parse", "HEAD") or None,
             # uncommitted edits to tracked files on top of git_sha
             "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
             "changed_since": CHANGED,
             "n_fails": len(fails), "queries": records},
            f, indent=1, sort_keys=True,
        )

ray.shutdown()
sys.exit(1 if fails else 0)
