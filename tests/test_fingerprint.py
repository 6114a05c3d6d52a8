"""The derived code fingerprint and the import closures it must cover."""

import ast
import subprocess
import sys

import pytest

from repro import fingerprint
from repro.experiments.registry import experiment_names, get_experiment
from repro.fingerprint import INERT_MODULES, PACKAGE_DIR, fingerprint_tree, tree_files
from repro.lint.imports import _resolve_from, build_import_graph


@pytest.fixture(scope="module")
def graph():
    return build_import_graph(PACKAGE_DIR)


def _inert(module):
    return any(module == p or module.startswith(p + ".") for p in INERT_MODULES)


def _unhashed(graph, root):
    """Modules reachable from ``root`` whose file the fingerprint skips."""
    hashed = set(tree_files(PACKAGE_DIR, INERT_MODULES).values())
    return sorted(
        m
        for m in graph.closure([root])
        if not _inert(m) and graph.files[m].resolve() not in hashed
    )


class TestCoverage:
    """Replaces a per-experiment module list policed by a lint rule."""

    @pytest.mark.parametrize("name", experiment_names())
    def test_experiment_closure_is_hashed(self, graph, name):
        root = get_experiment(name).run.__module__
        assert root in graph.files
        assert _unhashed(graph, root) == []

    def test_synthesis_closure_is_hashed(self, graph):
        # the summary cache keys on the same fingerprint
        closure = graph.closure(["repro.telemetry.dataset"])
        assert "repro.optics.units" in closure
        assert _unhashed(graph, "repro.telemetry.dataset") == []

    def test_only_inert_layers_are_left_out(self):
        everything = tree_files(PACKAGE_DIR)
        hashed = tree_files(PACKAGE_DIR, INERT_MODULES)
        assert set(everything) - set(hashed) == {m for m in everything if _inert(m)}
        # every inert entry names a real module, so none can go stale
        assert set(INERT_MODULES) <= set(everything)


#: modules run as programs rather than imported by an experiment
ENTRY_MODULES = ("repro.__main__", "repro.cli", "repro.lint.__main__")
#: script trees whose imports are roots too (perfbench's own tests are not)
SCRIPT_DIRS = ("benchmarks", "examples", "perfbench")


class ReachabilityGraph:
    """The import graph with ``from hub import name`` resolved to a submodule.

    ``build_import_graph`` records ``from repro.net import Topology`` as
    an edge to the hub ``repro.net``, whose ``__init__`` re-exports every
    submodule, so through it everything would reach everything.  Here such
    an import counts as an edge to the submodule the hub re-exports the
    name from, and a hub's own module-level re-exports are not followed.
    """

    def __init__(self, graph):
        self.universe = set(graph.files)
        self.hubs = {m for m, path in graph.files.items() if path.name == "__init__.py"}
        trees = {
            m: ast.parse(path.read_text(encoding="utf-8")) for m, path in graph.files.items()
        }
        self.exports = {hub: self._exports(hub, trees[hub]) for hub in self.hubs}
        self.edges = {m: set(self.imports(m, tree, m in self.hubs)) for m, tree in trees.items()}

    def _clamp(self, target):
        while target and target not in self.universe:
            target = target.rpartition(".")[0]
        return target

    def _from_targets(self, module, is_package, node):
        """(target, imported name) per alias of a ``from ... import``."""
        for alias in node.names:
            single = ast.ImportFrom(module=node.module, names=[alias], level=node.level)
            for target in _resolve_from(module, is_package, single, self.universe):
                target = self._clamp(target)
                if target:
                    yield target, alias

    def _exports(self, hub, tree):
        """Public name -> (source module, source name) for a hub's re-exports."""
        exports = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                for target, alias in self._from_targets(hub, True, node):
                    exports[alias.asname or alias.name] = (target, alias.name)
        return exports

    def _through_hubs(self, target, name):
        while target in self.hubs and name in self.exports[target]:
            target, name = self.exports[target][name]
        return target

    def imports(self, module, tree, is_package=False):
        """Every resolved ``repro`` module that ``tree`` imports."""
        skip = set(map(id, tree.body)) if is_package else set()
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = self._clamp(alias.name)
                    if target:
                        yield target
            elif isinstance(node, ast.ImportFrom):
                for target, alias in self._from_targets(module, is_package, node):
                    yield self._through_hubs(target, alias.name)

    def unreached(self, roots):
        """Non-hub modules that no root reaches."""
        seen, stack = set(), list(roots)
        while stack:
            module = stack.pop()
            if module not in seen:
                seen.add(module)
                stack.extend(self.edges.get(module, ()))
        return sorted(self.universe - self.hubs - seen)


def script_imports(reach, repo_dir):
    """Modules imported by the ``.py`` files under :data:`SCRIPT_DIRS`."""
    found = set()
    for directory in SCRIPT_DIRS:
        for path in sorted((repo_dir / directory).rglob("*.py")):
            if path.relative_to(repo_dir).parts[:2] == ("perfbench", "tests"):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found.update(reach.imports("__script__", tree))
    return found


class TestReachability:
    """Every module is reached from an experiment, an entry point or a script."""

    def test_every_module_is_reached(self, graph):
        reach = ReachabilityGraph(graph)
        roots = {get_experiment(name).run.__module__ for name in experiment_names()}
        roots |= set(ENTRY_MODULES) | script_imports(reach, PACKAGE_DIR.parents[1])
        unreached = reach.unreached(roots)
        assert not unreached, f"no experiment, entry point or script reaches {unreached}"

    def test_hub_import_reaches_only_the_reexporting_submodule(self, tmp_path):
        pkg = _write(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/hub/__init__.py": "from pkg.hub.a import A\nfrom pkg.hub.b import B\n",
                "pkg/hub/a.py": "A = 1\n",
                "pkg/hub/b.py": "B = 2\n",
                "pkg/main.py": "from pkg.hub import A\n",
            },
        )
        reach = ReachabilityGraph(build_import_graph(pkg))
        assert reach.unreached(["pkg.main"]) == ["pkg.hub.b"]


def _write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root / "pkg"


class TestFingerprintTree:
    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(fingerprint, "_memo", {})

    def test_edit_changes_digest(self, tmp_path):
        pkg = _write(tmp_path, {"pkg/__init__.py": "", "pkg/a.py": "X = 1\n"})
        before = fingerprint_tree(pkg)
        fingerprint._memo.clear()
        (pkg / "a.py").write_text("X = 2\n", encoding="utf-8")
        assert fingerprint_tree(pkg) != before

    def test_path_is_hashed_with_the_bytes(self, tmp_path):
        a = _write(tmp_path / "a", {"pkg/__init__.py": "", "pkg/x.py": "X = 1\n"})
        b = _write(tmp_path / "b", {"pkg/__init__.py": "", "pkg/y.py": "X = 1\n"})
        assert fingerprint_tree(a) != fingerprint_tree(b)

    def test_excluded_modules_do_not_count(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/a.py": "X = 1\n"}
        a = _write(tmp_path / "a", files)
        b = _write(tmp_path / "b", {**files, "pkg/inert/__init__.py": "Y = 1\n"})
        assert fingerprint_tree(a) == fingerprint_tree(b, ["pkg.inert"])
        assert list(tree_files(b, ["pkg.inert"])) == ["pkg", "pkg.a"]

    def test_memoised(self, tmp_path):
        pkg = _write(tmp_path, {"pkg/__init__.py": "", "pkg/a.py": "X = 1\n"})
        before = fingerprint_tree(pkg)
        (pkg / "a.py").write_text("X = 2\n", encoding="utf-8")
        assert fingerprint_tree(pkg) == before

    def test_imports_nothing(self):
        code = (
            "import sys\n"
            "from repro.fingerprint import code_fingerprint\n"
            "code_fingerprint()\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd=PACKAGE_DIR.parent,
        ).stdout
        assert out.strip() == "['repro', 'repro.fingerprint']"
