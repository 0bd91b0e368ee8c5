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
of them, directly or transitively. A ``QUERY_TABLE`` row is selected
when the module of its ``"<module>.<func>"`` target is among them, or
when an entry-file function it runs imports one of them (a row whose
input is the synthetic spans corpus runs the corpus staging, which
imports ``pipelines.resume`` and ``sources.corpus``). When
``__ray_entry__.py`` itself changed, a query is selected too when its
row, the entry-file functions it runs (the shared runner, with
``cents`` ``_round_cols``, with a spans input the corpus staging) or
its oracle SQL differ from REV's. The selected names are printed
before the sweep.

Importing this module starts no Ray and parses no arguments; ``main()``
does both."""
import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
import types

import pandas as pd

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()
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


def with_parents(name: str, mods) -> set:
    """``name`` and the parent packages importing it executes."""
    out = set()
    while name:
        if name in mods:
            out.add(name)
        name = name.rpartition(".")[0]
    return out


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
            out |= with_parents(n, mods)
    return out


def entry_functions(entry_mod) -> dict:
    return {
        k: v for k, v in vars(entry_mod).items()
        if inspect.isfunction(v) and v.__module__ == entry_mod.__name__
    }


def closure(fn, funcs, seen) -> dict:
    """``fn`` and every ``__ray_entry__`` function it names, transitively,
    as name -> AST."""
    tree = ast.parse(inspect.getsource(fn))
    seen[fn.__name__] = tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in funcs and node.id not in seen:
            closure(funcs[node.id], funcs, seen)
    return seen


def query_trees(row, funcs) -> dict:
    """The entry-file functions a table row runs, as name -> AST: the
    shared runner, ``_round_cols`` with ``cents``, and the spans-corpus
    staging when the row reads that corpus."""
    trees = closure(funcs["_run"], funcs, {})
    if not row.cents:
        trees.pop("_round_cols")
    if row.input in ("sf_dir", None):
        trees.pop("_spans")
        trees.pop("_corpus_for")
    return trees


def query_modules(entry_mod, mods) -> dict:
    """Query name -> the package modules running it imports: its
    target's module and those the entry-file functions it runs import."""
    funcs = entry_functions(entry_mod)
    out = {}
    for row in entry_mod.QUERY_TABLE:
        deps = with_parents(f"{PKG}.{row.target.rpartition('.')[0]}", mods)
        for tree in query_trees(row, funcs).values():
            deps |= imported_modules(tree, "", mods)
        out[row.name] = deps
    return out


def importers(changed: set, mods) -> set:
    """``changed`` and every package module importing one of them,
    directly or transitively."""
    graph = {}
    for m, path in mods.items():
        pkg = m if path.endswith("__init__.py") else m.rpartition(".")[0]
        with open(os.path.join(HERE, path)) as f:
            graph[m] = imported_modules(ast.parse(f.read()), pkg, mods)
    affected = set(changed)
    grew = True
    while grew:
        more = {m for m, deps in graph.items() if deps & affected} - affected
        affected |= more
        grew = bool(more)
    return affected


def changed_queries(rev: str, entry_mod, oracles: dict) -> set:
    mods = package_modules()
    files = set(git("diff", "--name-only", rev).splitlines())
    files |= set(git("ls-files", "--others", "--exclude-standard").splitlines())
    affected = importers({m for m, path in mods.items() if path in files}, mods)

    picked = {q for q, deps in query_modules(entry_mod, mods).items() if deps & affected}
    if "__ray_entry__.py" in files:
        old_text = git("show", f"{rev}:__ray_entry__.py")
        old_src = {
            n.name: ast.dump(n) for n in ast.parse(old_text).body
            if isinstance(n, ast.FunctionDef)
        }
        old_mod = types.ModuleType("_ray_entry_at_rev")
        exec(compile(old_text, f"__ray_entry__.py@{rev}", "exec"), old_mod.__dict__)
        old_oracles = old_mod.oracle_sql()
        # a REV from before the table has no rows: every query counts as changed
        old_rows = {r.name: r for r in getattr(old_mod, "QUERY_TABLE", ())}
        funcs = entry_functions(entry_mod)
        for row in entry_mod.QUERY_TABLE:
            trees = query_trees(row, funcs)
            if (
                old_rows.get(row.name) != row
                or any(old_src.get(f) != ast.dump(t.body[0]) for f, t in trees.items())
                or old_oracles.get(row.name) != oracles.get(row.name)
            ):
                picked.add(row.name)
    return picked


def to_df(res):
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False, name=None)
    )
    return hashlib.sha256(str(rows).encode()).hexdigest()[:16]


def main(argv):
    only = changed = json_path = None
    if "--only" in argv:
        i = argv.index("--only")
        only = set(argv[i + 1].split(","))
        del argv[i : i + 2]
    if "--changed" in argv:
        i = argv.index("--changed")
        changed = argv[i + 1]
        del argv[i : i + 2]
    if "--json" in argv:
        i = argv.index("--json")
        json_path = argv[i + 1]
        del argv[i : i + 2]
    sf = argv[1] if len(argv) > 1 else "/root/testdata/sf0.01"
    # data-dependent oracles (corpus paths, trained centroids) must derive
    # from the SAME scale this sweep verifies at
    os.environ["GRAFT_VERIFY_SF"] = sf

    import duckdb
    import ray

    # the CPUs this process may run on: the exchange width a deployment on
    # this box would use (the JSON records the same count as nproc)
    ray.init(
        address="local", num_cpus=len(os.sched_getaffinity(0)),
        include_dashboard=False, logging_level="ERROR",
    )
    import __ray_entry__ as entry_mod

    # 1. entry()
    if only is None and changed is None:
        t0 = time.time()
        res = entry_mod.entry()
        df = to_df(res)
        print(f"entry(): {len(df)} rows, schema={sorted(df.columns)}, {time.time()-t0:.1f}s")
        assert len(df) > 0

    # 2. queries vs oracle
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    print(f"{len(qs)} queries, {len(oracles)} oracled")
    if changed is not None:
        picked = changed_queries(changed, entry_mod, oracles)
        only = picked if only is None else only & picked
        print(f"--changed {changed}: {len(only)} queries: {', '.join(sorted(only))}")
    fails = []
    records = {}
    for name, fn in qs.items():
        if only is not None and name not in only:
            continue
        t0 = time.time()
        try:
            rdf = to_df(fn(sf))
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
            try:
                odf = con.execute(oracles[name]).df()
            except Exception as e:
                fails.append((name, f"ORACLE ERROR {type(e).__name__}: {e}"))
                print(f"  {name}: ORACLE ERROR {e}")
                records[name]["status"] = "ERROR"
                continue
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
    if json_path:
        with open(json_path, "w") as f:
            json.dump(
                {"sf_dir": sf, "nproc": len(os.sched_getaffinity(0)),
                 "git_sha": git("rev-parse", "HEAD") or None,
                 # uncommitted edits to tracked files on top of git_sha
                 "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                 "changed_since": changed,
                 "n_fails": len(fails), "queries": records},
                f, indent=1, sort_keys=True,
            )

    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
