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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_KWARGS = {"concurrency", "fn_constructor_kwargs", "fn_constructor_args", "compute"}
# stage names allowed to run on an actor pool (none: no measurement
# shows a pool winning)
ALLOWED: set = set()


def _sources():
    paths = [os.path.join(ROOT, "__ray_entry__.py")]
    for root, _, files in os.walk(os.path.join(ROOT, "document_parser_private_ray")):
        paths += [os.path.join(root, f) for f in files if f.endswith(".py")]
    return {os.path.relpath(p, ROOT): ast.parse(open(p).read()) for p in sorted(paths)}


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


# -- one grouped-aggregate layer ---------------------------------------------

GROUPED_AGG = "document_parser_private_ray/pipelines/exchange.py::grouped_agg"
# hand-written partials kept outside ``exchange.grouped_agg``, with why
ALLOWED_PARTIALS = {
    "document_parser_private_ray/pipelines/joins.py::q3_shipping_priority.line_revenue_partial": (
        "Bloom-prunes the per-order partial before its exchange"
    ),
    "document_parser_private_ray/pipelines/segments.py::remove_boilerplate.df_partials": (
        "distinct (segment, doc) pairs first, then a count"
    ),
    "document_parser_private_ray/pipelines/relational.py::events_hourly_users.dedup_partial": (
        "a distinct partial (no aggregate), merged by a Count"
    ),
}


def _is_arrow_agg(node) -> bool:
    # ``<x>.group_by(...).aggregate(...)``
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "aggregate"
        and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Attribute)
        and node.func.value.func.attr == "group_by"
    )


def _spine_hits(expr, names: set) -> bool:
    """Whether ``expr``'s receiver chain (method calls, attributes,
    subscripts) runs through an Arrow group-by aggregate or a name
    bound to one."""
    while True:
        if _is_arrow_agg(expr) or (isinstance(expr, ast.Name) and expr.id in names):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            expr = expr.func.value
        elif isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        else:
            return False


def _ends_in_arrow_agg(fn: ast.FunctionDef) -> bool:
    """The function's last statement returns an Arrow group-by aggregate,
    directly or through names bound to one (renames, re-packing)."""
    bound: set = set()
    for stmt in fn.body:
        if isinstance(stmt, ast.Assign) and _spine_hits(stmt.value, bound):
            bound |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    last = fn.body[-1]
    if not (isinstance(last, ast.Return) and last.value is not None):
        return False
    return any(
        _is_arrow_agg(n) or (isinstance(n, ast.Name) and n.id in bound)
        for n in ast.walk(last.value)
    )


def _feeds_ray_groupby(call: ast.Call, parents: dict, scope) -> bool:
    """``call``'s dataset reaches ``.groupby(...).aggregate(...)``: chained
    on it directly, or through the name it is assigned to."""
    up = parents.get(call)
    if isinstance(up, ast.Attribute) and up.attr == "groupby":
        return True
    if isinstance(up, ast.Assign):
        names = {t.id for t in up.targets if isinstance(t, ast.Name)}
        return any(
            isinstance(n, ast.Attribute)
            and n.attr == "groupby"
            and isinstance(n.value, ast.Name)
            and n.value.id in names
            for n in ast.walk(scope)
        )
    return False


def _hand_rolled_partials():
    found = []
    for path, tree in _sources().items():
        parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.FunctionDef):
                continue
            if f"{path}::{scope.name}" == GROUPED_AGG:
                continue
            local = {s.name: s for s in scope.body if isinstance(s, ast.FunctionDef)}
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) and node.func.attr == "map_batches":
                    fn = node.args[0] if node.args else None
                elif isinstance(node.func, ast.Name) and node.func.id == "co_partition":
                    fn = node.args[2] if len(node.args) > 2 else None
                else:
                    continue
                if not (isinstance(fn, ast.Name) and fn.id in local):
                    continue
                if _ends_in_arrow_agg(local[fn.id]) and _feeds_ray_groupby(
                    node, parents, scope
                ):
                    found.append(f"{path}::{scope.name}.{fn.id}")
    return found


def test_no_hand_rolled_grouped_partials():
    """A function handed to ``map_batches`` or ``co_partition`` that ends
    in a pyarrow ``.group_by(...).aggregate(...)`` whose dataset feeds a
    Ray ``.groupby(...).aggregate(...)`` is the two-phase grouped
    aggregate ``exchange.grouped_agg`` owns; only the partials named in
    ``ALLOWED_PARTIALS`` (not plain per-key aggregates) stay by hand."""
    found = _hand_rolled_partials()
    assert sorted(set(found) - set(ALLOWED_PARTIALS)) == []
    # every allowance still names a live partial
    assert sorted(set(ALLOWED_PARTIALS) - set(found)) == []


# -- one sorted-run layer ----------------------------------------------------

SORTS = {"lexsort", "sort_indices", "sort_by"}
# positional index of each exchange layer's ``kernel`` argument
KERNEL_ARG = {"co_partition": 2, "co_partition_pairs": 1, "sorted_runs": 3}
# bucket kernels allowed to sort by hand, with why (a kernel that sorts
# its bucket by key and order columns to find key runs belongs on
# ``exchange.sorted_runs``). Outside this guard's reach, and staying as
# they are: ``relational.customer_balance_quartiles`` sorts inside a
# per-nation ``groupby().map_groups``, not a ``co_partition``;
# ``relational.signup_conversion_24h`` and
# ``time_to_convert_percentiles`` use scatter-min and do not sort.
ALLOWED_SORTS = {
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
    named in ``ALLOWED_SORTS`` sort by hand."""
    found = _sorting_kernels()
    assert sorted(found - set(ALLOWED_SORTS)) == []
    # every allowance still names a live sorting kernel
    assert sorted(set(ALLOWED_SORTS) - found) == []


# -- one spans read, one reservation rule ------------------------------------

READ_CORPUS = "document_parser_private_ray/pipelines/resume.py::read_corpus"
LIFT_RESERVATION = "document_parser_private_ray/stages/__init__.py::lift_reservation"
# spans-table reads and reservation switches allowed outside those two
# (none)
ALLOWED_SPANS_READS: set = set()
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
    for path, tree in _sources().items():
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


# -- one exchange-width rule -------------------------------------------------

WIDTH_READERS = {
    "document_parser_private_ray/pipelines/resume.py::read_corpus",
    "document_parser_private_ray/pipelines/relational.py::_read",
}
WIDTH_NAMES = {"n_buckets", "num_blocks", "num_read_blocks"}
# positional arity of the exchange layers; one more argument is a width
EXCHANGE_ARITY = {"co_partition": 3, "sorted_runs": 4}
# the per-CPU constants of ``stages`` a width may be taken at
RULE_CONSTANTS = {"EXCHANGE_PER_CPU", "SPANS_READ_PER_CPU"}
# widths allowed off the rule, with why (none)
ALLOWED_WIDTHS: set = set()


def _is_rule_call(node) -> bool:
    """``width()`` or ``stages.width()``, bare or at a named per-CPU
    constant of the rule's module (``width(SPANS_READ_PER_CPU)``)."""
    return (
        isinstance(node, ast.Call)
        and not node.keywords
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "width")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "width")
        )
        and all(ast.unparse(a).split(".")[-1] in RULE_CONSTANTS for a in node.args)
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
    ``override_num_blocks=`` outside the rule's two readers, and no
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
