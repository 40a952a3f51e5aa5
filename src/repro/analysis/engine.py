"""The rule engine behind ``python -m repro lint``.

A :class:`Rule` inspects one parsed source file and yields
:class:`Finding`\\ s.  The engine owns everything rules share: file
discovery, parsing, per-line ``# lint: disable=HLxxx`` suppressions,
and stable ordering of results.

The engine runs in **two passes**.  Pass one discovers and parses every
file (in parallel — parsing is embarrassingly independent — with the
results re-ordered so the outcome is deterministic).  Pass two runs
every rule over each file on its own: no rule sees another file.

Suppression syntax (same line as the finding)::

    values = buf.data          # lint: disable=HL001
    t = threading.Thread(...)  # lint: disable=HL005,HL001
    anything_at_all()          # lint: disable=all

Suppressions are recognized only in genuine comments (the source is
tokenized): the same text inside a string or docstring — e.g. a rule's
own hint text — neither suppresses anything nor counts as a
suppression for the ``--check-suppressions`` audit.

Findings carry the same structured ``details`` dict format used by
:class:`~repro.errors.ReproError` subclasses and the runtime sanitizer,
so static reports, runtime reports, and exceptions line up.
"""

from __future__ import annotations

import ast
import concurrent.futures
import dataclasses
import enum
import io
import os
import re
import threading
import tokenize
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Severity",
    "Finding",
    "FileContext",
    "FileResult",
    "Rule",
    "iter_python_files",
    "parse_file",
    "parse_files",
    "run_rules",
    "run_rules_detailed",
]

#: Directories never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "node_modules"}


class Severity(enum.Enum):
    """How bad a finding is.  Any unsuppressed finding fails the run."""

    ERROR = "error"
    WARNING = "warning"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    details: tuple = ()  # sorted (key, value) pairs; dict via .details_dict

    @property
    def details_dict(self) -> dict:
        return dict(self.details)

    def to_dict(self) -> dict:
        """JSON-ready form (shared format with sanitizer violations)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "details": self.details_dict,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} " \
               f"{self.severity.value}: {self.message}"


_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")


def _comment_lines(source: str) -> dict[int, str] | None:
    """Line number -> comment text for every real comment, or None if
    the source cannot be tokenized (syntax too broken)."""
    out: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        return None
    return out


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number (1-based) -> set of suppressed rule ids.

    Only genuine comments count; the tokenizer is consulted for any
    line the cheap regex matches, so ``disable=`` text embedded in a
    string literal is ignored.  If tokenization fails (the file will
    be reported as unparsable anyway) the regex result stands.
    """
    candidates: dict[int, str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if _SUPPRESS_RE.search(text):
            candidates[lineno] = text
    if not candidates:
        return {}
    comments = _comment_lines(source)
    out: dict[int, set[str]] = {}
    for lineno, text in sorted(candidates.items()):
        if comments is not None:
            text = comments.get(lineno, "")
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        ids = {part.strip().upper() for part in m.group(1).split(",")}
        ids = {i for i in ids if i}
        if ids:
            out[lineno] = ids
    return out


class FileContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, path: Path, source: str, tree: ast.AST):
        self.path = Path(path)
        #: Forward-slash form used for allowlist suffix matching.
        self.posix = self.path.resolve().as_posix()
        self.source = source
        self.tree = tree
        self.suppressions = parse_suppressions(source)

    def in_module(self, *suffixes: str) -> bool:
        """True if this file is one of the given path suffixes."""
        return any(self.posix.endswith(s) for s in suffixes)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        ids = self.suppressions.get(line)
        if not ids:
            return False
        return "ALL" in ids or rule_id.upper() in ids


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id`, :attr:`severity`, :attr:`title`, and
    :attr:`hint`, and implement :meth:`check` as a generator of
    findings (use :meth:`finding` to build them).
    """

    id: str = "HL000"
    severity: Severity = Severity.ERROR
    title: str = ""
    hint: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        details: dict | None = None,
    ) -> Finding:
        items = tuple(sorted((details or {}).items()))
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=str(ctx.path),
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint,
            details=items,
        )


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through)."""
    seen: set[str] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_file():
            if p.suffix == ".py" and str(p) not in seen:
                seen.add(str(p))
                yield p
            continue
        if not p.is_dir():
            continue
        for sub in sorted(p.rglob("*.py")):
            if any(part in _SKIP_DIRS or part.endswith(".egg-info")
                   for part in sub.parts):
                continue
            if str(sub) in seen:
                continue
            seen.add(str(sub))
            yield sub


def _error_finding(path: Path, line: int, col: int, message: str,
                   kind: str) -> Finding:
    return Finding(
        rule="HL000",
        severity=Severity.ERROR,
        path=str(path),
        line=line,
        col=col,
        message=message,
        details=(("error", kind),),
    )


#: ast.parse is not thread-safe on CPython 3.11 (concurrent calls can
#: die with "SystemError: AST constructor recursion depth mismatch"),
#: and the GIL serializes the CPU-bound parse regardless — the worker
#: threads only overlap file I/O and tokenization.
_AST_PARSE_LOCK = threading.Lock()


def parse_file(path: Path | str) -> FileContext | Finding:
    """Parse one file; a structured HL000 finding instead of a crash
    when the file is not UTF-8 or not valid Python."""
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return _error_finding(
            path, 0, 0,
            f"could not decode as UTF-8: {exc.reason} at byte {exc.start}",
            "decode",
        )
    except OSError as exc:
        return _error_finding(path, 0, 0, f"could not read: {exc}", "io")
    try:
        with _AST_PARSE_LOCK:
            tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return _error_finding(
            path, exc.lineno or 0, exc.offset or 0,
            f"could not parse: {exc.msg}", "syntax",
        )
    return FileContext(path, source, tree)


def _default_jobs() -> int:
    return max(1, min(8, os.cpu_count() or 1))


def parse_files(
    paths: Iterable[Path | str],
    jobs: int | None = None,
) -> tuple[list[FileContext], list[Finding]]:
    """Pass one: parse every file under ``paths`` in parallel.

    Returns ``(contexts, error_findings)``.  The thread pool only
    accelerates I/O and tokenization; results are re-assembled in
    discovery order so the outcome is bit-identical to a serial run.
    """
    files = list(iter_python_files(paths))
    jobs = jobs if jobs and jobs > 0 else _default_jobs()
    if len(files) <= 1 or jobs == 1:
        results = [parse_file(f) for f in files]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(parse_file, files))
    contexts = [r for r in results if isinstance(r, FileContext)]
    errors = [r for r in results if isinstance(r, Finding)]
    return contexts, errors


@dataclasses.dataclass
class FileResult:
    """Per-file outcome of a lint run (pre- and post-suppression)."""

    ctx: FileContext
    findings: list[Finding]  # kept (suppressions applied)
    raw: list[Finding]       # every finding the rules produced


def _check_contexts(
    contexts: Sequence[FileContext],
    rules: Sequence[Rule],
) -> list[FileResult]:
    out: list[FileResult] = []
    for ctx in contexts:
        kept: list[Finding] = []
        raw: list[Finding] = []
        for rule in rules:
            for f in rule.check(ctx):
                raw.append(f)
                if not ctx.is_suppressed(f.line, f.rule):
                    kept.append(f)
        out.append(FileResult(ctx=ctx, findings=kept, raw=raw))
    return out


def run_rules_detailed(
    paths: Iterable[Path | str],
    rules: Iterable[Rule],
    jobs: int | None = None,
) -> tuple[list[FileResult], list[Finding]]:
    """Two-pass lint returning per-file raw/kept findings.

    Returns ``(file_results, parse_error_findings)``; used by the
    suppression audit, which needs to know what each suppression
    actually silenced.
    """
    rules = list(rules)
    contexts, errors = parse_files(paths, jobs=jobs)
    return _check_contexts(contexts, rules), errors


def run_rules(
    paths: Iterable[Path | str],
    rules: Iterable[Rule],
    jobs: int | None = None,
) -> list[Finding]:
    """Lint every python file under ``paths``; stable ordering."""
    results, errors = run_rules_detailed(paths, rules, jobs=jobs)
    findings = list(errors)
    for r in results:
        findings.extend(r.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
