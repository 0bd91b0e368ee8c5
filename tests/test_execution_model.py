"""One execution model, checked without Ray: every ``map_batches`` in
the package and the driver entry file runs as a task map. A call that
sizes or requests an actor pool (``concurrency=``,
``fn_constructor_kwargs=``, ``fn_constructor_args=``, ``compute=``), a
bare class handed to ``map_batches`` (Ray runs a class on an actor
pool), or any use of ``ActorPoolStrategy`` fails the test. A stage may
only stay on an actor pool with a committed measurement showing the
pool winning, and then by name in ``ALLOWED``."""

import ast
import os
import subprocess
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_KWARGS = {"concurrency", "fn_constructor_kwargs", "fn_constructor_args", "compute"}
# stage names allowed to run on an actor pool (none: no measurement
# shows a pool winning)
ALLOWED: set = set()


def _sources(root: str = ROOT, extra=()):
    paths = [os.path.join(root, f) for f in ("__ray_entry__.py", *extra)]
    for walk_root, _, files in os.walk(os.path.join(root, "document_parser_private_ray")):
        paths += [os.path.join(walk_root, f) for f in files if f.endswith(".py")]
    return {os.path.relpath(p, root): ast.parse(open(p).read()) for p in sorted(paths)}


def _stage_name(call: ast.Call) -> str:
    fn = call.args[0] if call.args else None
    if isinstance(fn, ast.Call):
        fn = fn.func
    return fn.id if isinstance(fn, ast.Name) else ast.unparse(fn) if fn else ""


def test_no_actor_pool_map_batches():
    trees = _sources()
    classes = {
        n.name for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
    }
    bad = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            where = f"{path}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Name) and node.id == "ActorPoolStrategy") or (
                isinstance(node, ast.Attribute) and node.attr == "ActorPoolStrategy"
            ):
                bad.append((where, "ActorPoolStrategy"))
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"
            ):
                continue
            name = _stage_name(node)
            if name in ALLOWED:
                continue
            pool_kwargs = sorted(k.arg for k in node.keywords if k.arg in POOL_KWARGS)
            if pool_kwargs:
                bad.append((where, name, pool_kwargs))
            if node.args and isinstance(node.args[0], ast.Name) and node.args[0].id in classes:
                bad.append((where, name, "class, not an instance"))
    assert bad == []


# -- one grouped aggregate ----------------------------------------------------

EXCHANGE = "document_parser_private_ray/pipelines/exchange.py"
# Ray ``.groupby(`` calls allowed outside the exchange, with why: each is a
# per-natural-key ``map_groups`` whose kernel needs exactly one key per
# call, not a bucket exchange
ALLOWED_GROUPBYS = {
    "document_parser_private_ray/pipelines/relational.py::customer_balance_quartiles": (
        "per-nation NTILE: one nation's balances ranked per call"
    ),
    "document_parser_private_ray/pipelines/semdedup.py::semdedup": (
        "one similarity matrix per k-means cluster"
    ),
    "document_parser_private_ray/pipelines/cardinality.py::vocab_kmv_by_source": (
        "per-source KMV finalize: one source's partial minima per call"
    ),
}


def _grouped_aggregates(root: str = ROOT):
    """``(ray.data.aggregate imports, Ray .groupby( calls outside the
    exchange)``, each a list of ``path:line`` / ``(path::function,
    line)``. The package has no pandas ``groupby``; Arrow spells it
    ``group_by``."""
    imports, groupbys = [], []
    for path, tree in _sources(root).items():
        owner = _innermost(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = []
            if any(n == "ray.data.aggregate" or n.startswith("ray.data.aggregate.") for n in names):
                imports.append(f"{path}:{node.lineno}")
            if (
                path != EXCHANGE
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "groupby"
            ):
                groupbys.append((f"{path}::{owner[node]}", node.lineno))
    return imports, groupbys


def test_one_grouped_aggregate():
    """Every grouped aggregate is ``exchange.grouped_agg``, merged through
    ``co_partition``: no module imports ``ray.data.aggregate``, and no
    Ray ``.groupby(`` runs outside ``exchange.py`` except the
    per-natural-key ``map_groups`` sites named in ``ALLOWED_GROUPBYS``."""
    imports, groupbys = _grouped_aggregates()
    assert imports == []
    sites = {name for name, _ in groupbys}
    assert sorted(sites - set(ALLOWED_GROUPBYS)) == []
    # every allowance still names a live call
    assert sorted(set(ALLOWED_GROUPBYS) - sites) == []


# -- one sorted-run layer ----------------------------------------------------

SORTS = {"lexsort", "sort_indices", "sort_by"}
# positional index of each exchange layer's ``kernel`` argument
KERNEL_ARG = {"co_partition": 2, "sorted_runs": 3}
# bucket kernels allowed to sort by hand, with why (a kernel that sorts
# its bucket by key and order columns to find key runs belongs on
# ``exchange.sorted_runs``). Outside this guard's reach, and staying as
# they are: ``relational.customer_balance_quartiles`` sorts inside a
# per-nation ``groupby().map_groups``, not a ``co_partition``;
# ``relational.signup_conversion_24h`` and
# ``time_to_convert_percentiles`` use scatter-min and do not sort.
ALLOWED_KERNEL_SORTS = {
    "document_parser_private_ray/pipelines/exchange.py::sorted_runs.run": (
        "the layer itself: the one stable sort per bucket"
    ),
    "document_parser_private_ray/pipelines/relational.py::session_purchase_counts.join_bucket": (
        "a two-sided interval join: sorts the session side only, then "
        "searchsorts the event side into it"
    ),
    "document_parser_private_ray/pipelines/search.py::build_postings.partial_bucket": (
        "sorts dictionary codes of the rows left after a per-batch distinct"
    ),
    "document_parser_private_ray/pipelines/search.py::build_postings.merge_bucket": (
        "sorts dictionary codes of flattened id lists, not bucket rows"
    ),
    "document_parser_private_ray/pipelines/dedup.py::_elect_keepers": (
        "also runs on driver tables outside any exchange"
    ),
}


def _kernel_arg(call: ast.Call):
    if not isinstance(call.func, ast.Name) or call.func.id not in KERNEL_ARG:
        return None
    i = KERNEL_ARG[call.func.id]
    if len(call.args) > i:
        return call.args[i]
    return next((k.value for k in call.keywords if k.arg == "kernel"), None)


def _sorting_kernels():
    """``path::outer.kernel`` (``path::kernel`` for a module-level one) of
    every function handed to an exchange layer that calls ``np.lexsort``,
    ``pc.sort_indices`` or ``.sort_by``."""
    found = set()
    for path, tree in _sources().items():
        top = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for outer in top.values():
            local = {
                n.name: n for n in ast.walk(outer)
                if isinstance(n, ast.FunctionDef) and n is not outer
            }
            for call in ast.walk(outer):
                fn = _kernel_arg(call) if isinstance(call, ast.Call) else None
                if not isinstance(fn, ast.Name):
                    continue
                if fn.id in local:
                    kernel, name = local[fn.id], f"{path}::{outer.name}.{fn.id}"
                elif fn.id in top:
                    kernel, name = top[fn.id], f"{path}::{fn.id}"
                else:
                    continue
                if any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in SORTS
                    for n in ast.walk(kernel)
                ):
                    found.add(name)
    return found


def test_no_hand_rolled_sorted_runs():
    """A bucket kernel that sorts its rows is the "sort the bucket, find
    key runs, rank" step ``exchange.sorted_runs`` owns; only the kernels
    named in ``ALLOWED_KERNEL_SORTS`` sort by hand."""
    found = _sorting_kernels()
    assert sorted(found - set(ALLOWED_KERNEL_SORTS)) == []
    # every allowance still names a live sorting kernel
    assert sorted(set(ALLOWED_KERNEL_SORTS) - found) == []


# -- one spans read, one reservation rule ------------------------------------

READ_CORPUS = "document_parser_private_ray/pipelines/resume.py::read_corpus"
LIFT_RESERVATION = "document_parser_private_ray/stages/__init__.py::lift_reservation"
# spans-table reads and reservation switches allowed outside those two,
# kept with why
ALLOWED_SPANS_READS = {
    "bench.py::run_headline": (
        "the driver-contract headline's 14 blocks per CPU, tuned on 32 CPUs and not "
        "re-measured since (ROADMAP H)"
    ),
}
ALLOWED_RESERVATION_SWITCHES: set = set()


def _functions(tree):
    """``(qualified name, node)`` of every function, nested ones as
    ``outer.inner``."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                out.append((name, child))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def _innermost(tree):
    """node -> qualified name of the innermost function holding it
    (module level: ``<module>``)."""
    owner = {n: "<module>" for n in ast.walk(tree)}
    for name, fn in sorted(_functions(tree), key=lambda f: f[0].count(".")):
        for n in ast.walk(fn):
            owner[n] = name
    return owner


def _spans_read(call: ast.Call, parents: dict, params: set) -> bool:
    """A ``read_parquet`` of the spans corpus: it selects a ``spans``
    column, its path names a corpus, or its dataset goes straight into
    ``parse_resumes`` or into a chain the function was handed."""
    cols = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "columns"), None
    )
    if isinstance(cols, (ast.List, ast.Tuple)) and any(
        isinstance(e, ast.Constant) and e.value == "spans" for e in cols.elts
    ):
        return True
    if call.args and "corpus" in ast.unparse(call.args[0]).lower():
        return True
    up = parents.get(call)
    return (
        isinstance(up, ast.Call)
        and isinstance(up.func, ast.Name)
        and (up.func.id == "parse_resumes" or up.func.id in params)
    )


def _offenders():
    reads, switches = [], []
    for path, tree in _sources(extra=["bench.py"]).items():
        parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        owner = _innermost(tree)
        fns = dict(_functions(tree))
        for node in ast.walk(tree):
            where = f"{path}::{owner[node]}"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "read_parquet"
            ):
                fn = fns.get(owner[node])
                params = {a.arg for a in fn.args.args} if fn is not None else set()
                if _spans_read(node, parents, params) and where != READ_CORPUS:
                    reads.append((where, node.lineno))
            # an attribute store, or the name as a string (``setattr``)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                name = node.attr
            else:
                name = node.value if isinstance(node, ast.Constant) else None
            if name == "op_resource_reservation_enabled" and where != LIFT_RESERVATION:
                switches.append((where, node.lineno))
    return reads, switches


def test_one_spans_read_and_one_reservation_rule():
    """The spans corpus is read only by ``resume.read_corpus`` (its
    CPU-sized block count is the one sizing rule), and Ray Data's
    per-operator reservation is switched only by
    ``stages.lift_reservation`` (the one rule for a scan feeding a
    CPU-bound map)."""
    reads, switches = _offenders()
    assert [r for r in reads if r[0] not in ALLOWED_SPANS_READS] == []
    assert [s for s in switches if s[0] not in ALLOWED_RESERVATION_SWITCHES] == []
    # every allowance still names a live read
    assert sorted(set(ALLOWED_SPANS_READS) - {r[0] for r in reads}) == []


# -- one exchange-width rule -------------------------------------------------

WIDTH_READERS = {
    "document_parser_private_ray/sources/readers.py::read_table",
}
WIDTH_NAMES = {"n_buckets", "num_blocks", "num_read_blocks"}
# positional arity of the exchange layers; one more argument is a width
EXCHANGE_ARITY = {"co_partition": 3, "sorted_runs": 4}
# widths allowed off the rule, with why (none)
ALLOWED_WIDTHS: set = set()


def _is_rule_call(node) -> bool:
    """``width()`` or ``stages.width()``, called bare."""
    return (
        isinstance(node, ast.Call)
        and not node.keywords
        and not node.args
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "width")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "width")
        )
    )


def _rule_names(fn) -> set:
    """Names a function (nested ones included) binds to the rule."""
    return {
        t.id
        for n in ast.walk(fn) if isinstance(n, ast.Assign) and _is_rule_call(n.value)
        for t in n.targets if isinstance(t, ast.Name)
    }


def _width_offenders():
    found = []
    for path, tree in _sources().items():
        owner = _innermost(tree)
        fns = dict(_functions(tree))
        qualname = {fn: name for name, fn in _functions(tree)}
        for node in ast.walk(tree):
            where = f"{path}::{owner[node]}"
            if isinstance(node, ast.FunctionDef):
                name = f"{path}::{qualname[node]}"
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                for a in args:
                    if a.arg in WIDTH_NAMES:
                        found.append((name, f"parameter {a.arg}"))
            if isinstance(node, ast.Dict) and path == "__ray_entry__.py":
                for k in node.keys:
                    if isinstance(k, ast.Constant) and k.value in WIDTH_NAMES:
                        found.append((where, f"query kwarg {k.value}"))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            fname = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            top = owner[node].split(".")[0]
            rule = _rule_names(fns[top]) if top in fns else set()

            def off_rule(expr):
                return not (_is_rule_call(expr) or (isinstance(expr, ast.Name) and expr.id in rule))

            if fname in EXCHANGE_ARITY and len(node.args) > EXCHANGE_ARITY[fname]:
                found.append((where, f"{fname} width {ast.unparse(node.args[-1])}"))
            for k in node.keywords:
                if k.arg in WIDTH_NAMES:
                    found.append((where, f"{fname}({k.arg}=)"))
                if k.arg == "override_num_blocks" and (
                    where not in WIDTH_READERS or off_rule(k.value)
                ):
                    found.append((where, f"override_num_blocks={ast.unparse(k.value)}"))
            if fname == "repartition" and node.args and off_rule(node.args[0]):
                found.append((where, f"repartition({ast.unparse(node.args[0])})"))
            if fname == "bucket_ids" and len(node.args) > 1 and off_rule(node.args[1]):
                found.append((where, f"bucket_ids(..., {ast.unparse(node.args[1])})"))
    return found


def test_one_exchange_width_rule():
    """Every exchange and every exchange-feeding read takes its width
    from ``stages.width()`` on the driver: no package parameter named
    ``n_buckets`` / ``num_blocks`` / ``num_read_blocks`` (the hash
    modulus of ``exchange.bucket_ids`` is ``n``), no width argument to
    ``co_partition`` / ``sorted_runs``, no ``repartition``,
    ``bucket_ids`` modulus or ``override_num_blocks=`` off the rule, no
    ``override_num_blocks=`` outside the rule's reader (``read_table``), and no
    width kwarg in ``QUERY_TABLE``."""
    assert [f for f in _width_offenders() if f[0] not in ALLOWED_WIDTHS] == []


# -- no public API that only tests reach -------------------------------------

# public package functions and classes nothing in the product reaches,
# kept with why (each is a surface a COVERAGE row names and a test drives)
ALLOWED_UNREACHED = {
    "document_parser_private_ray/config.py::default_config_path": "S8: the YAML loaders",
    "document_parser_private_ray/config.py::load_yaml_config": "S8: the YAML loaders",
    "document_parser_private_ray/config.py::pii_rules_from_config": "S8: the YAML loaders",
    "document_parser_private_ray/config.py::pattern_groups_from_config": "S8: the YAML loaders",
    "document_parser_private_ray/pipelines/evaluate.py::evaluate_predictions": (
        "R3: the fuzzy similarity channel of the eval join, which SQL cannot replay"
    ),
    "document_parser_private_ray/pipelines/html.py::web_extract_job": (
        "Scale layer: the resumable, key-partitioned HTML job"
    ),
    "document_parser_private_ray/pipelines/resume.py::sample_corpus": "R7: seeded sampling",
    "document_parser_private_ray/sources/files.py::from_text_files": "S1 / M12: raw-file mode",
    "document_parser_private_ray/sources/files.py::from_pdf_files": "S2-S5: the PDF chain",
    "document_parser_private_ray/sources/files.py::from_docx_files": "S6: the DOCX chain",
    "document_parser_private_ray/sources/files.py::from_html_files": "S6b: the HTML file chain",
    "document_parser_private_ray/stages/parse.py::explode_spans": "R1: span reassembly",
    "document_parser_private_ray/stages/parse.py::reassemble_group": "R1: span reassembly",
    "document_parser_private_ray/stages/parse.py::split_oversize_rows": (
        "R1 / SURVEY §7.4: very-wide-row continuation rows"
    ),
    "document_parser_private_ray/stages/parse.py::reassemble_continuations": (
        "R1 / SURVEY §7.4: very-wide-row continuation rows"
    ),
}


def _referenced(node) -> set:
    """Names code under ``node`` refers to: bare names, attributes and
    imported names (a docstring mention is not a reference)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def _unreached(root: str = ROOT) -> set:
    """``path::name`` of every public top-level function and class of the
    package under ``root`` that no other package code (``job.py``
    included), no ``__ray_entry__.py`` code or ``QUERY_TABLE`` target,
    ``bench.py`` nor ``perfbench/`` names."""
    public, reached = {}, set()
    for walk_root, _, files in os.walk(os.path.join(root, "document_parser_private_ray")):
        for f in sorted(files):
            if not f.endswith(".py"):
                continue
            path = os.path.join(walk_root, f)
            for node in ast.parse(open(path).read()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if not node.name.startswith("_"):
                        public[f"{os.path.relpath(path, root)}::{node.name}"] = node.name
                    reached |= _referenced(node) - {node.name}
                else:
                    reached |= _referenced(node)
    outside = ["__ray_entry__.py", "bench.py"] + [
        os.path.join("perfbench", f)
        for f in sorted(os.listdir(os.path.join(root, "perfbench"))) if f.endswith(".py")
    ]
    for path in outside:
        tree = ast.parse(open(os.path.join(root, path)).read())
        reached |= _referenced(tree)
        # a QUERY_TABLE target: the string second argument of a ``Q(...)`` row
        reached |= {
            n.args[1].value.rpartition(".")[2]
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Q"
            and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)
        }
    return {where for where, name in public.items() if name not in reached}


def test_no_public_api_only_tests_reach():
    """Every public package function and class is reached by the product:
    a ``QUERY_TABLE`` row or other driver-contract code, ``job.py``
    (package code), ``bench.py``, ``perfbench/`` or another package
    name. One only a test calls is
    deleted or moved into its test, unless ``ALLOWED_UNREACHED`` names
    it with the COVERAGE row it serves."""
    unreached = _unreached()
    assert sorted(unreached - set(ALLOWED_UNREACHED)) == []
    # every allowance still names a live, unreached definition
    assert sorted(set(ALLOWED_UNREACHED) - unreached) == []


# -- one way to broadcast ----------------------------------------------------

# ``ray.put`` / ``ray.get`` kept, with why: a map closes over its
# driver-side value (Ray stores a map's function, closure included, in
# the object store once per operator), so only a ref that is itself an
# interface stays
ALLOWED_BROADCASTS = {
    "document_parser_private_ray/job.py::main": (
        "puts the warm caches once per job; every resumable partition's "
        "parse_resumes reuses the same ref"
    ),
    "document_parser_private_ray/pipelines/resume.py::parse_resumes": (
        "turns warm caches into the ObjectRef whose id keys the parse worker_state slot "
        "(callers such as perfbench pass a ref already)"
    ),
    "document_parser_private_ray/stages/parse.py::oracle.build": (
        "resolves the warm-cache ref once per worker and warm set, inside worker_state"
    ),
}


def _broadcasts(root: str = ROOT):
    """``(path::function, line)`` of every ``ray.put`` / ``ray.get`` use
    in the package and the driver entry file under ``root``."""
    found = []
    for path, tree in _sources(root).items():
        owner = _innermost(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("put", "get")
                and isinstance(node.value, ast.Name)
                and node.value.id == "ray"
            ):
                found.append((f"{path}::{owner[node]}", node.lineno))
    return found


def test_one_way_to_broadcast():
    """A map that needs a driver-side value (a bloom filter, an id or hash
    set, an offset dict, a centroid matrix) closes over it: no
    hand-written ``ray.put`` ref resolved by ``ray.get`` in every batch.
    Only the warm-cache ref, whose id keys a worker's parse state, is
    put and got, in the places ``ALLOWED_BROADCASTS`` names."""
    found = _broadcasts()
    assert [f for f in found if f[0] not in ALLOWED_BROADCASTS] == []
    # every allowance still names a live call
    assert sorted(set(ALLOWED_BROADCASTS) - {f[0] for f in found}) == []


# -- order only where the answer is an order ---------------------------------

# ``Dataset.sort`` calls kept although they do not feed ``.limit(``
# directly, with why. No contract answer is ordered across rows
# (``tools/check_contract.value_hash`` sorts the rows before hashing),
# and every sort is a Ray all-to-all, so a sort that only orders a
# returned Dataset goes; a bounded driver collect whose code reads the
# order sorts the collected rows locally instead.
ALLOWED_SORTS = {
    "document_parser_private_ray/pipelines/exchange.py::co_partition": (
        "the exchange layer itself: the bucket ids, given as the sort's "
        "boundaries, route each bucket's rows to one block"
    ),
}


def _dataset_sort(call: ast.Call) -> bool:
    """A ``Dataset.sort``: a ``.sort`` with a positional key, a key given
    as column names, or a ``descending`` / ``boundaries`` argument
    (``list.sort`` takes only ``key=`` callables and ``reverse=``)."""
    if not isinstance(call.func, ast.Attribute) or call.func.attr != "sort":
        return False
    return bool(call.args) or any(
        k.arg in ("descending", "boundaries")
        or (k.arg == "key" and isinstance(k.value, (ast.Constant, ast.List, ast.Tuple)))
        for k in call.keywords
    )


def _dataset_sorts(root: str = ROOT):
    """``(path::function, line, feeds_limit)`` of every ``Dataset.sort``
    in the package and the driver entry file under ``root``;
    ``feeds_limit`` when the call is chained straight into ``.limit(``."""
    found = []
    for path, tree in _sources(root).items():
        owner = _innermost(tree)
        parents = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _dataset_sort(node)):
                continue
            up = parents.get(node)
            feeds_limit = (
                isinstance(up, ast.Attribute)
                and up.attr == "limit"
                and isinstance(parents.get(up), ast.Call)
                and parents[up].func is up
            )
            found.append((f"{path}::{owner[node]}", node.lineno, feeds_limit))
    return found


def test_every_dataset_sort_has_a_reason():
    """A ``Dataset.sort`` stays only where the answer is an order: chained
    into ``.limit(`` (a top-k), or named with its reason in
    ``ALLOWED_SORTS``."""
    found = _dataset_sorts()
    assert found, "the scan found no Dataset.sort at all"
    assert [f[:2] for f in found if not f[2] and f[0] not in ALLOWED_SORTS] == []
    # every allowance still names a live call that needs it
    assert sorted(set(ALLOWED_SORTS) - {f[0] for f in found if not f[2]}) == []


def test_dataset_sort_scan_tells_a_dataset_sort_from_a_list_sort():
    calls = {
        "ds.sort('doc_id')": True,
        "ds.sort(['n', 'w'], descending=[True, False])": True,
        "ds.sort(key='doc_id')": True,
        "ds.sort(key=['a', 'b'])": True,
        "rows.sort()": False,
        "rows.sort(key=lambda r: r['day'])": False,
        "rows.sort(key=itemgetter(0), reverse=True)": False,
    }
    got = {src: _dataset_sort(ast.parse(src, mode="eval").body) for src in calls}
    assert got == calls


# -- every tracked file compiles clean ---------------------------------------

def test_tracked_python_compiles_without_warnings():
    """Every git-tracked ``.py`` compiles with warnings as errors: an
    invalid escape such as ``'\\s'`` in a non-raw string warns today and
    is a syntax error in a later Python."""
    files = subprocess.run(
        ["git", "ls-files", "*.py"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.split()
    assert files
    bad = []
    for path in files:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            src = f.read()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(src, path, "exec")
            except (SyntaxError, Warning) as e:
                bad.append((path, str(e)))
    assert bad == []


# -- one value per option ----------------------------------------------------

# defaulted options of public package functions and constructors that no
# call passes, kept with why; any other such option is a second
# configuration nothing runs, so it goes (its default becomes a constant)
ALLOWED_UNSET_OPTIONS = {
    "document_parser_private_ray/pipelines/html.py::web_extract_job(run_id)": (
        "deployment setting: the run id stamped on every lineage row of a job"
    ),
}
OPTION_CALLERS = ("document_parser_private_ray", "__ray_entry__.py", "bench.py",
                  "perfbench", "tools", "tests")


_NOT = object()  # an expression that is no literal


def _literal(node, names: dict):
    """The value of the literal ``node``, or of a name ``names`` binds to
    a literal; ``_NOT`` for anything else."""
    if isinstance(node, ast.Name):
        return names.get(node.id, _NOT)
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return _NOT


def _scope(node):
    """The nodes of ``node``'s own scope: nested function, lambda and
    class bodies left out."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(n))


def _scope_literals(node, outer: dict) -> dict:
    """Name -> value of every name bound in ``node``'s scope: the literal
    of its one assignment (``outer``'s names resolved), ``_NOT`` for a
    name bound by anything else or more than once."""
    count: dict = {}
    value: dict = {}
    for n in _scope(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            count[n.id] = count.get(n.id, 0) + 1
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            count[n.name] = count.get(n.name, 0) + 1
        elif isinstance(n, ast.alias):
            name = (n.asname or n.name).split(".")[0]
            count[name] = count.get(name, 0) + 1
        if isinstance(n, ast.Assign) and len(n.targets) == 1:
            t, v = n.targets[0], n.value
            pairs = [(t, v)]
            if isinstance(t, ast.Tuple) and isinstance(v, ast.Tuple) and len(t.elts) == len(v.elts):
                pairs = zip(t.elts, v.elts)
            for t, v in pairs:
                if isinstance(t, ast.Name):
                    value[t.id] = _literal(v, outer)
    return {k: value.get(k, _NOT) if c == 1 else _NOT for k, c in count.items()}


def _default(node, names: dict):
    """A parameter default as a comparable value: its literal, else its
    source."""
    v = _literal(node, names)
    return ("expr", ast.dump(node)) if v is _NOT else ("lit", type(v).__name__, v)


def _scan(path: str, tree):
    """(defs, arguments) of one file. ``defs``: ``path::qualname`` ->
    (callee name, positional parameter names, {defaulted parameter:
    default}) for every function, method and class ``__init__`` (called
    by the class name), ``self`` left out. ``arguments``: (callee name,
    parameter, source) for every argument of every call, the parameter
    a keyword, a position or ``"**"`` (an unpacked argument: every
    parameter) and the source ``"set"``, ``("lit", value)`` for a
    literal or a name bound once to one, or ``("param", def, name)``
    for a defaulted parameter of an enclosing function passed along. A
    ``functools.partial(f, ...)`` is a call of ``f``; a ``QUERY_TABLE``
    row ``Q(name, "mod.f", kwargs, ..., input=...)`` calls ``f`` with its
    kwargs dict, after one positional input unless ``input=None``."""
    defs: dict = {}
    args: list = []

    def source(node, frames):
        if isinstance(node, ast.Name):
            for key, params, names in reversed(frames):
                if node.id in params:
                    return ("param", key, node.id) if params[node.id] else "set"
                if node.id in names:
                    v = names[node.id]
                    return "set" if v is _NOT else ("lit", v)
            return "set"
        v = _literal(node, {})
        return "set" if v is _NOT else ("lit", v)

    def call(n: ast.Call, frames):
        fn, pos, keywords = n.func, list(n.args), n.keywords
        name = getattr(fn, "id", None) or getattr(fn, "attr", None)
        if name == "partial" and pos:
            name = getattr(pos[0], "id", None) or getattr(pos[0], "attr", None)
            pos = pos[1:]
        if name == "Q" and len(pos) > 1 and isinstance(pos[1], ast.Constant):
            kw = {k.arg: k.value for k in keywords}
            table = pos[2] if len(pos) > 2 else kw.get("kwargs")
            inp = kw.get("input")
            target = pos[1].value.rpartition(".")[2]
            if not (isinstance(inp, ast.Constant) and inp.value is None):
                args.append((target, 0, "set"))
            for k, v in zip(getattr(table, "keys", []), getattr(table, "values", [])):
                args.append((target, k.value, source(v, frames)))
            return
        if name is None:
            return
        for i, a in enumerate(pos):
            if isinstance(a, ast.Starred):
                args.append((name, "**", "set"))
                break
            args.append((name, i, source(a, frames)))
        for k in keywords:
            args.append((name, k.arg or "**", "set" if k.arg is None else source(k.value, frames)))

    def visit(nodes, frames, qual="", cls=False):
        for n in nodes:
            if isinstance(n, ast.ClassDef):
                visit(n.bases + n.keywords + n.decorator_list, frames, qual)
                visit(n.body, frames, f"{qual}{n.name}.", cls=True)
                continue
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = n.args
                decorators = getattr(n, "decorator_list", [])
                visit(a.defaults + [d for d in a.kw_defaults if d] + decorators, frames, qual)
                names = [p.arg for p in a.posonlyargs + a.args]
                defaulted = dict(zip(names[len(names) - len(a.defaults):], a.defaults))
                defaulted.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)
                params = {p: p in defaulted for p in names + [p.arg for p in a.kwonlyargs]}
                if isinstance(n, ast.Lambda):
                    visit([n.body], frames + [("", params, {})], qual)
                    continue
                key = f"{path}::{qual}{n.name}"
                static = any(getattr(d, "id", None) == "staticmethod" for d in decorators)
                skip = 1 if cls and not static else 0
                callee = qual.rstrip(".").rpartition(".")[2] if cls and n.name == "__init__" else n.name
                defs[key] = (
                    callee,
                    names[skip:],
                    {p: _default(d, frames[0][2]) for p, d in defaulted.items()},
                )
                frame = (key, params, _scope_literals(n, frames[0][2]))
                visit(n.body, frames + [frame], f"{qual}{n.name}.")
                continue
            if isinstance(n, ast.Call):
                call(n, frames)
            visit(ast.iter_child_nodes(n), frames, qual)

    visit(tree.body, [(path, {}, _scope_literals(tree, {}))])
    return defs, args


def _unset(trees: dict) -> tuple:
    """(options, unset): ``path::name(option)`` for every defaulted
    parameter of a public top-level function or public class
    ``__init__`` in the package, and those of them no call sets. An
    argument sets a parameter unless it is the parameter's own default:
    that literal, a name bound once to it, or an enclosing function's
    parameter with the same default that is itself unset."""
    defs: dict = {}
    args: list = []
    for path, tree in trees.items():
        d, a = _scan(path, tree)
        defs.update(d)
        args += a
    by_name: dict = {}
    for key, (callee, _, _) in defs.items():
        by_name.setdefault(callee, []).append(key)
    edges = []
    for callee, param, src in args:
        for key in by_name.get(callee, ()):
            pos, defaults = defs[key][1], defs[key][2]
            if param == "**":
                params = list(defaults)
            elif isinstance(param, int):
                params = pos[param : param + 1]
            else:
                params = [param]
            edges += [(key, p, src) for p in params if p in defaults]
    is_set: set = set()
    grew = True
    while grew:
        grew = False
        for key, p, src in edges:
            if (key, p) in is_set:
                continue
            default = defs[key][2][p]
            if src == "set":
                hit = True
            elif src[0] == "lit":
                hit = default != ("lit", type(src[1]).__name__, src[1])
            else:
                hit = (src[1], src[2]) in is_set or defs[src[1]][2][src[2]] != default
            if hit:
                is_set.add((key, p))
                grew = True
    options = {}
    for key, (callee, _, defaults) in defs.items():
        path, _, qual = key.partition("::")
        parts = qual.split(".")
        top = parts == [callee] or parts == [callee, "__init__"]
        if path.startswith("document_parser_private_ray") and top and not callee.startswith("_"):
            for p in defaults:
                options[f"{path}::{callee}({p})"] = (key, p)
    return set(options), {o for o, kp in options.items() if kp not in is_set}


def _unset_options(root: str = ROOT) -> set:
    """Every option no call in the package, the driver entry file,
    ``bench.py``, ``perfbench/``, ``tools/`` or ``tests/`` sets."""
    trees = {}
    for top in OPTION_CALLERS:
        full = os.path.join(root, top)
        paths = [full] if full.endswith(".py") else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(full) for f in fs if f.endswith(".py")
        )
        for path in paths:
            trees[os.path.relpath(path, root)] = ast.parse(open(path).read())
    return _unset(trees)[1]


def test_every_option_is_set_by_a_caller():
    """Each query computes one thing: a defaulted keyword option of a
    public package function or class constructor stays only while some
    call passes it (the product, a ``QUERY_TABLE`` row, ``bench.py``,
    ``perfbench/``, ``tools/`` or a test), or ``ALLOWED_UNSET_OPTIONS``
    names it with its reason. An option no call sets, or that every
    call sets only to its own default (a literal, a name bound to it or
    a parameter passed along), is a second configuration no run or test
    takes."""
    unset = _unset_options()
    assert sorted(unset - set(ALLOWED_UNSET_OPTIONS)) == []
    # every allowance still names a live, unset option
    assert sorted(set(ALLOWED_UNSET_OPTIONS) - unset) == []


def test_option_scan_counts_a_call_that_passes_another_value():
    package = (
        "N = 3\n"
        "def f(a, b=1, c=2, d=N, e=None): pass\n"
        "def g(k=2, j=2):\n"
        "    f(0, c=k, e=j)\n"
        "def h(sf, w=0):\n"
        "    n = 3\n"
        "    f(1, d=n)\n"
        "class C:\n"
        "    def __init__(self, p=1, q=2): pass\n"
        "def r(s, t=1): pass\n"
    )
    callers = (
        "f(1, 2)\n"
        "g(k=5)\n"
        "C(*xs)\n"
        "functools.partial(r, 1, 2)\n"
        'Q("q", "pipelines.m.h", {"w": 0})\n'
    )
    options, unset = _unset({
        "document_parser_private_ray/m.py": ast.parse(package),
        "tests/t.py": ast.parse(callers),
    })
    m = "document_parser_private_ray/m.py::"
    assert options == {m + o for o in (
        "f(b)", "f(c)", "f(d)", "f(e)", "g(k)", "g(j)", "h(w)", "C(p)", "C(q)", "r(t)"
    )}
    # d gets its default through a bound local, j reaches no caller, the
    # row passes w's default; c is set through g(k=5), e by j's other value
    assert unset == {m + "f(d)", m + "g(j)", m + "h(w)"}


# -- one HTML parse path -----------------------------------------------------


def _stdlib_html_parsing(trees: dict) -> list:
    """``path:line`` of each class that subclasses ``html.parser.HTMLParser``
    and of each ``.feed(`` call in a module that imports ``html.parser``
    (the one way to an HTMLParser to feed)."""
    found = []
    for path, tree in trees.items():
        imports_parser = any(
            (isinstance(n, ast.ImportFrom) and n.module == "html.parser")
            or (isinstance(n, ast.ImportFrom) and n.module == "html"
                and any(a.name == "parser" for a in n.names))
            or (isinstance(n, ast.Import) and any(a.name == "html.parser" for a in n.names))
            for n in ast.walk(tree)
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(b).split(".")[-1] == "HTMLParser" for b in node.bases
            ):
                found.append(f"{path}:{node.lineno}: class {node.name}")
            if (
                imports_parser
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "feed"
            ):
                found.append(f"{path}:{node.lineno}: .feed(")
    return found


def test_one_html_parse_path():
    """``sources/html._tokenize`` is the package's one HTML parser: no
    class subclasses the stdlib's ``HTMLParser`` and nothing feeds one
    (the stdlib parser stays only as the tests' oracle)."""
    assert _stdlib_html_parsing(_sources()) == []


def test_html_parse_path_scan_finds_a_subclass_and_a_feed():
    src = (
        "from html.parser import HTMLParser\n"
        "import html.parser\n"
        "class A(HTMLParser): pass\n"
        "class B(html.parser.HTMLParser): pass\n"
        "def parse(cls, page):\n"
        "    w = cls()\n"
        "    w.feed(page)\n"
    )
    other = "class C(object): pass\ndef f(q): q.feed(1)\n"
    assert _stdlib_html_parsing({"m.py": ast.parse(src), "n.py": ast.parse(other)}) == [
        "m.py:3: class A", "m.py:4: class B", "m.py:7: .feed(",
    ]
