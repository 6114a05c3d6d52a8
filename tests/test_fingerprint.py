"""The derived code fingerprint and the import closures it must cover."""

import subprocess
import sys

import pytest

from repro import fingerprint
from repro.experiments.registry import experiment_names, get_experiment
from repro.fingerprint import INERT_MODULES, PACKAGE_DIR, fingerprint_tree, tree_files
from repro.lint.imports import build_import_graph


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
