"""Smoke tests for the top-level public API surface."""

from __future__ import annotations

import importlib
import pkgutil

import pytest


class TestTopLevelImports:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            if name == "__version__":
                continue
            assert getattr(repro, name) is not None, name

    def test_lazy_data_model_exports(self):
        import repro

        assert repro.HAMRDataArray is not None
        assert repro.TableData is not None
        assert repro.UniformCartesianMesh is not None

    def test_unknown_attribute(self):
        import repro

        with pytest.raises(AttributeError):
            _ = repro.does_not_exist

    def test_subpackage_all_exports_resolve(self):
        """Every ``__all__`` in the package names something that exists,
        so an export left behind by a deletion fails by name."""
        import repro

        stale = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            mod = importlib.import_module(info.name)
            stale += [
                f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                if getattr(mod, name, None) is None
            ]
        assert not stale, stale

    def test_quickstart_docstring_snippet_runs(self):
        """The package docstring's quickstart must stay correct."""
        from repro import Allocator, HAMRDataArray

        arr = HAMRDataArray.new(
            "simData", 1000, allocator=Allocator.CUDA, device_id=0
        )
        arr.fill(-3.14)
        view = arr.get_host_accessible()
        arr.synchronize()
        assert view.get()[0] == -3.14
        view.release()
        arr.delete()
