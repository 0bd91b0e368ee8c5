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
