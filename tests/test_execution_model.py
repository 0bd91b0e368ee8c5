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
