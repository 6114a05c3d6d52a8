"""End-to-end lint_paths: caching, strict extras, determinism."""

import json

from repro.lint.runner import lint_paths, module_name_of


def make_tree(tmp_path, serializer_body):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "serialize.py").write_text(serializer_body)
    return tmp_path


DIRTY = "import json\n\n\ndef save(p):\n    return json.dumps(p)\n"


class TestLintPaths:
    def test_relative_paths_and_counts(self, tmp_path):
        tree = make_tree(tmp_path, DIRTY)
        result = lint_paths([tree / "src"], base=tree)
        assert result.n_files == 2
        [finding] = result.findings
        assert finding.path == "src/pkg/serialize.py"
        assert finding.code == "D004"
        assert not result.clean

    def test_dead_pragma_only_in_strict(self, tmp_path):
        tree = make_tree(
            tmp_path,
            "import json\n\n\ndef save(p):\n"
            "    return json.dumps(p, sort_keys=True)  # repro: allow[D001]\n",
        )
        relaxed = lint_paths([tree / "src"], base=tree)
        assert relaxed.findings == []
        strict = lint_paths([tree / "src"], base=tree, strict=True)
        assert [f.code for f in strict.findings] == ["P001"]

    def test_cache_round_trip_is_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        tree = make_tree(tmp_path, DIRTY)
        cold = lint_paths([tree / "src"], base=tree, cache=True)
        warm = lint_paths([tree / "src"], base=tree, cache=True)
        uncached = lint_paths([tree / "src"], base=tree, cache=False)
        assert cold.to_payload() == warm.to_payload() == uncached.to_payload()
        assert list((tmp_path / "cache").rglob("*.json"))

    def test_no_cache_env_zero_keeps_the_cache(self, tmp_path, monkeypatch):
        # the telemetry cache's rule: only 1/true/yes switch caching off
        tree = make_tree(tmp_path, DIRTY)
        for value, cached in (("0", True), ("yes", False)):
            cache = tmp_path / f"cache-{value}"
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
            monkeypatch.setenv("REPRO_NO_CACHE", value)
            lint_paths([tree / "src"], base=tree)
            assert bool(list(cache.rglob("*.json"))) is cached

    def test_cache_invalidated_by_edit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        tree = make_tree(tmp_path, DIRTY)
        assert not lint_paths([tree / "src"], base=tree, cache=True).clean
        (tree / "src" / "pkg" / "serialize.py").write_text(
            "import json\n\n\ndef save(p):\n"
            "    return json.dumps(p, sort_keys=True)\n"
        )
        assert lint_paths([tree / "src"], base=tree, cache=True).clean

    def test_payload_is_canonical_json(self, tmp_path):
        tree = make_tree(tmp_path, DIRTY)
        payload = lint_paths([tree / "src"], base=tree).to_payload()
        blob = json.dumps(payload, sort_keys=True)
        assert json.loads(blob) == payload


class TestModuleNameOf:
    def test_walks_up_through_packages(self, tmp_path):
        tree = make_tree(tmp_path, DIRTY)
        path = tree / "src" / "pkg" / "serialize.py"
        assert module_name_of(path) == "pkg.serialize"

    def test_init_maps_to_package(self, tmp_path):
        tree = make_tree(tmp_path, DIRTY)
        assert module_name_of(tree / "src" / "pkg" / "__init__.py") == "pkg"
