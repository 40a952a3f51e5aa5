"""Every public name in ``src/repro`` has a reader outside ``tests/``.

A public function, method, class or module-level constant that only
tests call is API nothing runs. This test parses ``src/repro`` and
counts a name as read when it appears as an identifier (``ast.Name``
in load context or ``ast.Attribute``) in any non-``__init__`` module of
``src/repro`` (its own module too, outside the name's own definition),
or anywhere in ``examples/`` or ``benchmarks/``. Imports and ``__all__`` strings are
not identifiers, so a re-export is not a read, and a name whose only
reader was deleted surfaces at once. Matching is by bare identifier:
``x.run()`` anywhere reads every public ``run``.

A name nothing reads may stay only with an entry in :data:`ALLOWLIST`
whose reason is one of :data:`REASONS`. The allowlist can only shrink:
an entry whose name is gone or now read fails too.

The same parse also fails by name on an import its module never uses
(a name read only inside a string annotation counts as used;
``__init__`` modules and names listed in ``__all__`` are re-exports).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent          # src/repro
READER_DIRS = ("examples", "benchmarks")
CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]*$")

#: Why a name with no reader may stay.
REASONS = {
    "paper": "an API of the paper's contribution (PAPER.md, DESIGN.md §1)",
    "design": "an extension point that a DESIGN.md section documents",
    "oracle": "a reference implementation that tests compare against",
}

#: ``module:qualname`` -> ``"<reason>: <why>"``.
ALLOWLIST = {
    "repro.svtk.hamr_array:HAMRDataArray.get_hip_accessible":
        "paper: the HDA's per-PM read access, HIP (DESIGN.md §1)",
    "repro.svtk.hamr_array:HAMRDataArray.get_openmp_accessible":
        "paper: the HDA's per-PM read access, OpenMP offload (DESIGN.md §1)",
    "repro.svtk.hamr_array:HAMRDataArray.get_sycl_accessible":
        "paper: the HDA's per-PM read access, SYCL (DESIGN.md §3.1, paper §5)",
    "repro.svtk.hamr_array:HAMRDataArray.get_kokkos_accessible":
        "paper: the HDA's per-PM read access, Kokkos (DESIGN.md §3.1, paper §5)",
    "repro.hamr.stream:Stream.to_native":
        "paper: svtkStream interop, hand a stream to PM-native code (DESIGN.md §1)",
    "repro.hamr.stream:Stream.from_native":
        "paper: svtkStream interop, adopt a PM-native stream (DESIGN.md §1, §5)",
    "repro.harness.scaling:strong_scaling":
        "design: the strong-scaling study (DESIGN.md §3, §4), pinned in "
        "tests/harness/paper_golden.json",
    "repro.harness.scaling:weak_scaling":
        "design: the weak-scaling study (DESIGN.md §3)",
    "repro.harness.scaling:parallel_efficiency":
        "design: the scaling study's efficiency series (DESIGN.md §4), pinned "
        "in tests/harness/paper_golden.json",
    "repro.array.halo:halo_bytes_by_rank":
        "oracle: per-rank halo bytes derived from the plan, against which "
        "tests check each exchanger's cached planned_halo_bytes",
    "repro.mpi.partition:slab_bounds":
        "oracle: the slab a rank owns, against which tests check owner_of",
    "repro.newton.solver:NewtonSolver.global_energy":
        "oracle: total energy over all ranks, the conservation reference",
}


def _module_name(path: Path, src: Path) -> str:
    rel = path.relative_to(src.parent).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _span(node: ast.AST) -> tuple[int, int]:
    decorators = getattr(node, "decorator_list", [])
    return min([node.lineno] + [d.lineno for d in decorators]), node.end_lineno


def _definitions(tree: ast.Module):
    """``(qualname, name, span)`` of every public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _public(node.name):
                continue
            yield node.name, node.name, _span(node)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _public(sub.name)):
                        yield f"{node.name}.{sub.name}", sub.name, _span(sub)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and CONSTANT.match(t.id):
                    yield t.id, t.id, _span(node)


def _identifiers(tree: ast.Module):
    """``(identifier, line)`` of every read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def scan(src: Path = SRC, reader_roots=None) -> tuple[set[str], set[str]]:
    """``(defined, unread)`` sets of ``module:qualname`` keys."""
    if reader_roots is None:
        reader_roots = [src.parents[1] / d for d in READER_DIRS]
    modules = {p: _parse(p) for p in sorted(src.rglob("*.py"))}
    outside: set[str] = set()
    for root in reader_roots:
        for p in sorted(Path(root).rglob("*.py")):
            outside.update(name for name, _ in _identifiers(_parse(p)))
    reads = {
        p: list(_identifiers(t)) for p, t in modules.items()
        if p.name != "__init__.py"
    }
    readers_of: dict[str, set[Path]] = {}
    for p, idents in reads.items():
        for name, _ in idents:
            readers_of.setdefault(name, set()).add(p)

    defined: set[str] = set()
    unread: set[str] = set()
    for p, tree in modules.items():
        mod = _module_name(p, src)
        own = reads.get(p, [])
        for qual, name, (lo, hi) in _definitions(tree):
            key = f"{mod}:{qual}"
            defined.add(key)
            if name in outside or readers_of.get(name, set()) - {p}:
                continue
            if any(n == name and not lo <= line <= hi for n, line in own):
                continue
            unread.add(key)
    return defined, unread


_DEFINED, _UNREAD = scan()


def test_every_public_name_has_a_reader():
    orphans = sorted(_UNREAD - ALLOWLIST.keys())
    assert not orphans, (
        "public names only tests read; delete them or allowlist them with a "
        "reason:\n  " + "\n  ".join(orphans)
    )


def test_allowlist_names_exist():
    stale = sorted(ALLOWLIST.keys() - _DEFINED)
    assert not stale, "allowlisted names that no longer exist:\n  " + "\n  ".join(stale)


def test_allowlist_names_are_still_unread():
    read = sorted((ALLOWLIST.keys() & _DEFINED) - _UNREAD)
    assert not read, (
        "allowlisted names that now have a reader; drop their entries:\n  "
        + "\n  ".join(read)
    )


def test_allowlist_reasons_are_known():
    bad = sorted(
        key for key, why in ALLOWLIST.items()
        if why.partition(":")[0] not in REASONS or not why.partition(":")[2].strip()
    )
    assert not bad, f"allowlist entries without a reason from {sorted(REASONS)}: {bad}"


def test_scan_sees_an_unread_function_and_a_chain(tmp_path):
    """The scan flags an unread name, and a name once its last reader is gone."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from pkg.a import used, orphan\n")
    (pkg / "a.py").write_text(
        "LIMIT = 3\n"
        "def used():\n    return helper()\n"
        "def helper():\n    return LIMIT\n"
        "def orphan():\n    return orphan()\n"
    )
    (pkg / "b.py").write_text("from pkg.a import used\nused()\n")
    defined, unread = scan(pkg, reader_roots=[])
    assert unread == {"pkg.a:orphan"}
    assert "pkg.a:helper" in defined

    (pkg / "b.py").write_text("from pkg.a import used\n")
    _, unread = scan(pkg, reader_roots=[])
    assert unread == {"pkg.a:orphan", "pkg.a:used"}


def _annotation_strings(tree: ast.Module):
    """Names read inside string annotations (``x: "Trace"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.parse(sub.value, mode="eval")
                    yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name ``tree`` never uses."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_strings(tree))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{p.relative_to(SRC.parent)}:{line} {name}"
        for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"
        for line, name in unused_imports(_parse(p))
    ]
    assert not unused, "imports nothing in their module uses:\n  " + "\n  ".join(unused)


def test_unused_import_scan_counts_string_annotations_and_all():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Mapping, Sequence\n"
        "from a import Trace, exported, dropped\n"
        "__all__ = ['exported']\n"
        "def f(x: 'Trace') -> Sequence[int]:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(tree) == [(3, "Mapping"), (4, "dropped")]
