"""No run of code in ``src/repro`` is copied from one module to another.

When two modules answer the same question, one of them should go; a
copied block is the plainest sign that they do. This test parses every
module of ``src/repro`` and reduces each line of code to its tokens
(whitespace and comments dropped). Lines inside a docstring, an import
or an ``__all__`` assignment do not count: they repeat by design. It
fails, naming both places, on any run of :data:`WINDOW` or more
consecutive lines that appears in two modules. Repeats inside one
module are out of its scope.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent          # src/repro

#: The shortest shared run of code lines that counts as a copy.
WINDOW = 6

_SKIPPED_TOKENS = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def _ignored_lines(tree: ast.Module) -> set[int]:
    """Line numbers of docstrings, imports and ``__all__`` assignments."""
    ignored = set()
    for node in ast.walk(tree):
        if isinstance(node, (
            ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef,
        )) and ast.get_docstring(node, clean=False) is not None:
            node = node.body[0]
        elif isinstance(node, ast.Assign):
            if not any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                continue
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        ignored.update(range(node.lineno, node.end_lineno + 1))
    return ignored


def code_lines(text: str) -> list[tuple[int, str]]:
    """``(line number, normalised text)`` for each counted line of code."""
    ignored = _ignored_lines(ast.parse(text))
    lines: dict[int, list[str]] = defaultdict(list)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIPPED_TOKENS and tok.start[0] not in ignored:
            lines[tok.start[0]].append(tok.string)
    return [(n, " ".join(lines[n])) for n in sorted(lines)]


def cross_module_copies(sources: dict[str, str]) -> list[str]:
    """Each run of >= :data:`WINDOW` lines shared by two modules, as
    ``"a.py:L <-> b.py:L (k windows)"`` from its first shared line."""
    seen: dict[tuple[str, ...], list[tuple[str, int]]] = defaultdict(list)
    for module in sorted(sources):
        lines = code_lines(sources[module])
        for i in range(len(lines) - WINDOW + 1):
            window = tuple(text for _n, text in lines[i:i + WINDOW])
            seen[window].append((module, lines[i][0]))
    pairs: dict[tuple[str, str], list[tuple[int, int]]] = defaultdict(list)
    for places in seen.values():
        for a, (mod_a, line_a) in enumerate(places):
            for mod_b, line_b in places[a + 1:]:
                if mod_a != mod_b:
                    pairs[mod_a, mod_b].append((line_a, line_b))
    return [
        f"{mod_a}:{min(starts)[0]} <-> {mod_b}:{min(starts)[1]} "
        f"({len(starts)} windows)"
        for (mod_a, mod_b), starts in sorted(pairs.items())
    ]


def test_no_code_is_copied_across_modules():
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }
    copies = cross_module_copies(sources)
    assert not copies, (
        f"runs of {WINDOW}+ lines copied between modules (move the shared "
        "code behind one of them):\n  " + "\n  ".join(copies)
    )


def test_a_copy_is_named_and_a_docstring_or_import_is_not():
    body = "".join(f"    total += step * {k}\n" for k in range(WINDOW))
    copied = f"def f(step):\n    total = 0\n{body}    return total\n"
    assert cross_module_copies({"a.py": copied, "b.py": copied}) == [
        "a.py:1 <-> b.py:1 (4 windows)"
    ]
    assert cross_module_copies({"a.py": copied + copied}) == []
    items = "".join(f"    'x{k}',\n" for k in range(WINDOW))
    repeated = (
        '"""Doc.\n' + "same text\n" * WINDOW + '"""\n'
        + "".join(f"import m{k}\n" for k in range(WINDOW))
        + f"__all__ = [\n{items}]\n"
    )
    assert cross_module_copies({"a.py": repeated, "b.py": repeated}) == []
