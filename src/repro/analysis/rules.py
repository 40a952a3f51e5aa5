"""The built-in rules (HL001-HL008, HL011, HL012) targeting this
codebase's idioms.

Each rule encodes one of the correctness hazards the heterogeneous
substrate permits mechanically (see :mod:`repro.hamr.buffer`): the
linter's job is to make them visible before the sanitizer has to catch
them at run time.

Every rule checks one file, and HL003, HL007 and HL008 one function
at a time: they are static heuristics over names and keywords that
resolve ``Allocator``/``PMKind``/``StreamMode`` members against the
real enums but do no type inference and follow no call.  HL012
additionally resolves the file's own import aliases.  Ids HL009 and HL010 are
retired and not reused.  False positives are expected to be rare in
this tree and are silenced with ``# lint: disable=HLxxx`` plus a
justification comment.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, Severity
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind

__all__ = [
    "RawDataAccessRule",
    "AllocatorMismatchRule",
    "UnsynchronizedStreamRule",
    "UnownedWrapRule",
    "ThreadOutsideRunnerRule",
    "SwallowedErrorRule",
    "PoolLeakRule",
    "PlacementChargeRule",
    "LiteralTagRule",
    "WallClockSemanticsRule",
    "DEFAULT_RULES",
    "default_rules",
    "rule_span",
]


# -- helpers ------------------------------------------------------------------

def tail_name(node: ast.AST) -> str | None:
    """Trailing identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def call_keywords(call: ast.Call) -> dict[str, ast.expr]:
    return {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}


def literal_device_id(node: ast.AST) -> int | None:
    """Literal device ordinals: ints, ``-1``, or ``HOST_DEVICE_ID``."""
    if _int_literal(node):
        return int(node.value)
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and _int_literal(node.operand)
    ):
        return -int(node.operand.value)
    if tail_name(node) == "HOST_DEVICE_ID":
        return HOST_DEVICE_ID
    return None


def _enum_member(node: ast.AST, enum_name: str, enum_cls):
    """Resolve ``EnumName.MEMBER`` attribute nodes to the real member."""
    if (
        isinstance(node, ast.Attribute)
        and tail_name(node.value) == enum_name
    ):
        return getattr(enum_cls, node.attr, None)
    return None


def _int_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _note_escapes(node: ast.AST, escaped: set[str]) -> None:
    """Add the names ``node`` hands out of its function (returned or
    stored on an attribute): freeing them is someone else's job."""
    if isinstance(node, ast.Return) and node.value is not None:
        escaped.update(
            sub.id for sub in ast.walk(node.value) if isinstance(sub, ast.Name)
        )
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
        if any(isinstance(tgt, ast.Attribute) for tgt in node.targets):
            escaped.add(node.value.id)


# -- HL001 --------------------------------------------------------------------

class RawDataAccessRule(Rule):
    """Raw ``Buffer.data`` / ``._data`` access outside the view layer.

    Storage tagged with a location must be dereferenced through the
    access APIs in :mod:`repro.hamr.view` (or the ``get_*_accessible``
    methods layered on them), which charge the right simulated costs
    and stage temporaries.  ``self.data`` / ``self._data`` are exempt
    (classes managing their own storage), as are the view and buffer
    modules that *define* the access path.
    """

    id = "HL001"
    severity = Severity.ERROR
    title = "raw buffer storage access outside the view layer"
    hint = (
        "route access through repro.hamr.view.accessible_view or the "
        "HAMRDataArray.get_*_accessible APIs; engine-layer code may "
        "suppress with '# lint: disable=HL001' and a justification"
    )

    #: Modules that define the sanctioned access path.
    allowed = ("repro/hamr/view.py", "repro/hamr/buffer.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.allowed):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in ("data", "_data"):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            yield self.finding(
                ctx,
                node,
                f"raw '.{node.attr}' access bypasses the location-aware "
                "view layer",
                details={"attribute": node.attr},
            )


# -- HL002 --------------------------------------------------------------------

class AllocatorMismatchRule(Rule):
    """Allocator paired with an incompatible location or PM.

    Flags calls whose literal keywords contradict the allocator's
    capabilities: a host-resident allocator targeting a device ordinal,
    a device allocator targeting ``HOST_DEVICE_ID``, or a
    device-resident allocator paired with the host-only PM.
    """

    id = "HL002"
    severity = Severity.ERROR
    title = "allocator/location/PM mismatch"
    hint = (
        "pick the allocator for where the memory must live: host "
        "allocators (MALLOC/NEW/*_HOST) pair with HOST_DEVICE_ID, "
        "device allocators with a device ordinal and a device PM"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            kws = call_keywords(node)
            alloc = _enum_member(kws.get("allocator"), "Allocator", Allocator)
            if alloc is None:
                continue
            details = {"allocator": alloc.name}
            dev = (
                literal_device_id(kws["device_id"])
                if "device_id" in kws
                else None
            )
            if dev is not None:
                details["device_id"] = dev
                if alloc.is_host_resident and dev != HOST_DEVICE_ID:
                    yield self.finding(
                        ctx,
                        node,
                        f"host-resident allocator {alloc.name} cannot "
                        f"target device {dev}",
                        details=details,
                    )
                elif alloc.is_device_resident and dev < 0:
                    yield self.finding(
                        ctx,
                        node,
                        f"device allocator {alloc.name} cannot target "
                        "host memory",
                        details=details,
                    )
            pm = _enum_member(kws.get("pm"), "PMKind", PMKind)
            if pm is PMKind.HOST and alloc.is_device_resident:
                details["pm"] = pm.value
                yield self.finding(
                    ctx,
                    node,
                    f"device allocator {alloc.name} paired with the "
                    "host-only PM",
                    details=details,
                )


# -- HL003 --------------------------------------------------------------------

class UnsynchronizedStreamRule(Rule):
    """A stream created and used asynchronously but never synchronized.

    Within one function: ``s = Stream(...)`` followed by a call passing
    ``stream=s`` together with ``mode=StreamMode.ASYNC`` (or
    ``stream_mode=StreamMode.ASYNC``) is flagged unless the function
    also synchronizes *something* (``.synchronize()``/``.drain()``),
    returns the stream, or stores it on ``self`` — i.e. unless the
    completion is someone's responsibility.
    """

    id = "HL003"
    severity = Severity.WARNING
    title = "asynchronous stream never synchronized"
    hint = (
        "call stream.synchronize(clock) (or synchronize the buffers "
        "ordered on it) before the results are consumed, or hand the "
        "stream to a caller that will"
    )

    _sync_methods = ("synchronize", "drain")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in _functions(ctx.tree):
            created: dict[str, ast.Call] = {}
            async_used: set[str] = set()
            discharged = False
            escaped: set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    if tail_name(node.value.func) == "Stream":
                        for tgt in node.targets:
                            if isinstance(tgt, ast.Name):
                                created[tgt.id] = node.value
                if isinstance(node, ast.Call):
                    if tail_name(node.func) in self._sync_methods:
                        discharged = True
                    kws = call_keywords(node)
                    stream_kw = kws.get("stream")
                    mode_kw = kws.get("mode") or kws.get("stream_mode")
                    if (
                        isinstance(stream_kw, ast.Name)
                        and tail_name(mode_kw) == "ASYNC"
                    ):
                        async_used.add(stream_kw.id)
                _note_escapes(node, escaped)
            if discharged:
                continue
            for name in sorted(async_used & set(created) - escaped):
                yield self.finding(
                    ctx,
                    created[name],
                    f"stream {name!r} orders asynchronous work but is "
                    "never synchronized in this function",
                    details={"stream": name, "stream_mode": "async"},
                )


# -- HL004 --------------------------------------------------------------------

class UnownedWrapRule(Rule):
    """Zero-copy construction without a lifetime owner.

    ``Buffer.wrap`` / ``*.zero_copy`` capture a pointer to externally
    allocated memory; without an ``owner`` (keep-alive) or ``deleter``
    (coordinated free) the wrapped storage can disappear while the
    buffer still references it — the classic zero-copy use-after-free.
    """

    id = "HL004"
    severity = Severity.WARNING
    title = "zero-copy wrap without lifetime owner"
    hint = (
        "pass owner= (keep-alive reference) or deleter= (called once "
        "on free) so the external memory outlives the buffer"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr == "wrap":
                recv = tail_name(node.func.value)
                if recv is None or not recv.endswith("Buffer"):
                    continue
            elif attr != "zero_copy":
                continue
            if any(kw.arg is None for kw in node.keywords):
                continue  # **kwargs forwarding: cannot see statically
            kws = call_keywords(node)
            if "owner" in kws or "deleter" in kws:
                continue
            yield self.finding(
                ctx,
                node,
                f"zero-copy '{attr}' without owner= or deleter=: the "
                "wrapped memory's lifetime is uncoordinated",
                details={"constructor": attr},
            )


# -- HL005 --------------------------------------------------------------------

class ThreadOutsideRunnerRule(Rule):
    """Direct ``threading.Thread`` use outside the wait table.

    Ad-hoc threads bypass the simulated-clock hand-off, back-pressure,
    and exception propagation that :class:`AsyncRunner` provides, and
    the baton of :class:`~repro.mpi.waits.WaitTable` that decides who
    runs; a thread without its own :class:`SimClock` silently reads the
    launching thread's clock and corrupts simulated time.
    """

    id = "HL005"
    severity = Severity.ERROR
    title = "raw thread outside AsyncRunner"
    hint = (
        "use repro.sensei.execution.AsyncRunner (simulated clocks, "
        "drain semantics, error propagation) instead of a raw Thread"
    )

    #: The module that implements the sanctioned threading machinery.
    allowed = ("repro/mpi/waits.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.allowed):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_thread = (
                isinstance(func, ast.Attribute)
                and func.attr == "Thread"
                and tail_name(func.value) == "threading"
            ) or (isinstance(func, ast.Name) and func.id == "Thread")
            if is_thread:
                yield self.finding(
                    ctx,
                    node,
                    "direct threading.Thread use outside AsyncRunner",
                )


# -- HL006 --------------------------------------------------------------------

class SwallowedErrorRule(Rule):
    """Bare ``except:`` or a silently swallowed ``StreamError``.

    A bare except hides every substrate error (including sanitizer
    violations); catching ``StreamError`` and doing nothing discards
    exactly the signal the stream layer exists to raise.
    """

    id = "HL006"
    severity = Severity.ERROR
    title = "swallowed stream error / bare except"
    hint = (
        "catch the narrowest ReproError subclass you can handle and "
        "either handle it or re-raise; never pass on a StreamError"
    )

    _stream_errors = ("StreamError",)

    def _catches_stream_error(self, handler: ast.ExceptHandler) -> bool:
        t = handler.type
        nodes = t.elts if isinstance(t, ast.Tuple) else [t]
        return any(tail_name(n) in self._stream_errors for n in nodes if n)

    @staticmethod
    def _body_swallows(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / ellipsis
            return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare 'except:' hides substrate errors"
                )
            elif self._catches_stream_error(node) and self._body_swallows(node):
                yield self.finding(
                    ctx,
                    node,
                    "StreamError caught and silently discarded",
                )


# -- HL007 --------------------------------------------------------------------

class PoolLeakRule(Rule):
    """A pool ``acquire`` without a ``release``/``trim_above`` in scope.

    Within one function: acquiring a block from a memory pool
    (``pool_for(res).acquire(...)`` or ``pool.acquire(...)`` on a name
    bound from ``pool_for``) without any ``release``/``trim_above`` call
    in the same function leaks the block's footprint — the bytes stay
    claimed on the device until someone trims.  The acquire is exempt
    when the pool escapes the function (returned, stored on ``self``),
    i.e. when releasing is visibly someone else's responsibility.
    """

    id = "HL007"
    severity = Severity.WARNING
    title = "pool acquire without release/trim_above in scope"
    hint = (
        "pair pool.acquire(nbytes) with pool.release(nbytes) (or a "
        "trim_above(watermark)) in the same scope, or hand the pool to an owner that "
        "frees it; allocation/free layers may suppress with "
        "'# lint: disable=HL007' and a justification"
    )

    #: The allocation/free layer splits acquire and release across
    #: functions by design (allocate vs free), and the pool module
    #: defines the machinery itself.
    allowed = ("repro/hamr/buffer.py", "repro/hamr/pool.py")

    @staticmethod
    def _is_pool_receiver(recv: ast.AST, pool_names: set[str]) -> bool:
        if isinstance(recv, ast.Call) and tail_name(recv.func) == "pool_for":
            return True
        name = tail_name(recv)
        return name is not None and name in pool_names

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.allowed):
            return
        for fn in _functions(ctx.tree):
            pool_names: set[str] = set()
            escaped: set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    if tail_name(node.value.func) == "pool_for":
                        for tgt in node.targets:
                            if isinstance(tgt, ast.Name):
                                pool_names.add(tgt.id)
                            elif isinstance(tgt, ast.Attribute):
                                escaped.add("")  # stored: escapes
                _note_escapes(node, escaped)
            acquires: list[ast.Call] = []
            discharged = False
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                attr = node.func.attr
                recv = node.func.value
                if attr == "acquire" and self._is_pool_receiver(recv, pool_names):
                    acquires.append(node)
                elif attr in ("release", "trim_above"):
                    discharged = True
            if discharged:
                continue
            for call in acquires:
                recv_name = tail_name(call.func.value)
                if recv_name in escaped:
                    continue
                yield self.finding(
                    ctx,
                    call,
                    "pool block acquired but never released or trimmed "
                    "in this scope",
                    details={"pool": recv_name or "pool_for(...)"},
                )


# -- HL008 --------------------------------------------------------------------

class PlacementChargeRule(Rule):
    """Work charged to a device other than the resolved placement.

    The placement formula (Eq. 1) exists so every rank charges its in
    situ work to *its* assigned device.  A function that resolves the
    placement — ``placement.resolve(rank)``, ``resolve_device()``, or
    ``select_device(...)`` — and then passes a *hardcoded* device
    ordinal as ``device_id=`` to some call in the same function is
    charging work to a device the formula may have assigned to another
    rank: on a shared node that double-charges one device while the
    resolved one idles, and the accounting (utilization, contention)
    silently lies.

    Charging the host (``-1`` / ``HOST_DEVICE_ID``) is exempt — host
    staging next to a device-placed analysis is a legitimate pattern,
    and the host is not a placement-managed device.
    """

    id = "HL008"
    severity = Severity.WARNING
    title = "device charge bypasses the resolved placement"
    hint = (
        "pass the resolved device (the value of placement.resolve(rank) "
        "/ resolve_device() / select_device(...)) instead of a "
        "hardcoded ordinal; deliberate cross-device staging may "
        "suppress with '# lint: disable=HL008' and a justification"
    )

    _resolvers = ("resolve", "resolve_device", "select_device")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in _functions(ctx.tree):
            resolved: set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    if tail_name(node.value.func) in self._resolvers:
                        for tgt in node.targets:
                            if isinstance(tgt, ast.Name):
                                resolved.add(tgt.id)
            if not resolved:
                continue  # nothing resolved here: not this rule's business
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                if tail_name(node.func) in self._resolvers:
                    continue  # the resolving call itself
                dev = literal_device_id(call_keywords(node).get("device_id"))
                if dev is None or dev < 0:
                    continue  # non-literal, or host staging (exempt)
                yield self.finding(
                    ctx,
                    node,
                    f"call charges device {dev} although this function "
                    f"resolved the placement into "
                    f"{'/'.join(sorted(resolved))}",
                    details={
                        "device_id": dev,
                        "resolved": ", ".join(sorted(resolved)),
                    },
                )


# -- HL011 --------------------------------------------------------------------

class LiteralTagRule(Rule):
    """An integer message tag minted outside the tag registry.

    Two flows that pick the same literal read each other's frames;
    tags from :mod:`repro.transport.flows` are derived per plane and
    checked for overlap when a flow table opens.  Flags an int literal
    passed as ``tag=`` / ``data_tag=`` / ``ack_tag=`` or assigned to a
    name ending in ``_TAG``.
    """

    id = "HL011"
    severity = Severity.ERROR
    title = "integer message tag outside the tag registry"
    hint = (
        "take the tag from repro.transport.flows (pipeline_tags, "
        "array_tags, CTRL_TAG, DATA_TAG/ACK_TAG) or add a plane there"
    )

    #: The registry module: the one place tag integers are written.
    allowed = ("repro/transport/flows.py",)
    keywords = ("tag", "data_tag", "ack_tag")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.allowed):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                named = [
                    (kw.arg, kw.value) for kw in node.keywords
                    if kw.arg in self.keywords
                ]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                named = [
                    (name, node.value) for name in map(tail_name, targets)
                    if name and name.endswith("_TAG")
                ]
            else:
                continue
            for name, value in named:
                if _int_literal(value):
                    yield self.finding(
                        ctx, value,
                        f"literal {name}={value.value} bypasses the tag "
                        "registry",
                        details={"name": name},
                    )


# -- HL012 --------------------------------------------------------------------

def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted target for every import in the file:
    ``import time as t`` maps ``t`` to ``time``, ``from datetime import
    datetime`` maps ``datetime`` to ``datetime.datetime``.  A relative
    import keeps its leading dots, so it never matches a stdlib name."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                out.setdefault(alias.asname or head,
                               alias.name if alias.asname else head)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name != "*":
                    out.setdefault(alias.asname or alias.name,
                                   f"{base}.{alias.name}")
    return out


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, its head resolved through
    ``aliases``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


class WallClockSemanticsRule(Rule):
    """Wall clock or unseeded randomness in the semantics.

    Whether a wait ends is decided by the SPMD run's wait table
    (:mod:`repro.mpi.waits`), and everything the library reports is
    simulated time; a wall-clock read, a ``time.sleep`` or a timed
    ``threading``/``queue`` wait in library code makes a simulated
    answer depend on host load (the stall guards this rule keeps out
    changed retry counts under 200 rank threads), and the process-wide
    RNG makes it depend on whoever drew from it before.  Flags,
    anywhere but the analyzer's own tooling and code that legitimately
    times itself (``benchmarks/``, ``examples/``, test files):

    - wall-clock reads (``time.time``/``monotonic``/``perf_counter``
      and their ``_ns`` forms, ``datetime.now``/``utcnow``/``today``)
      and ``time.sleep``;
    - an unseeded ``random.Random()`` and every other module-level
      ``random.*`` call (a seeded ``random.Random(seed)`` is the
      sanctioned source of randomness);
    - a ``timeout=`` keyword on ``.wait`` / ``.wait_for`` / ``.get`` /
      ``.put`` / ``.join`` / ``.acquire``.

    Names are resolved through the file's own imports, so ``import
    time as t; t.perf_counter()`` is caught too.
    """

    id = "HL012"
    severity = Severity.ERROR
    title = "wall clock in the semantics"
    hint = (
        "charge simulated time (current_clock()), draw from a seeded "
        "random.Random(seed), and block through the communicator or "
        "AsyncRunner: they park on the wait table, which reports a wait "
        "that cannot end as a DeadlockError"
    )

    exempt_dirs = ("benchmarks", "examples")
    exempt_modules = ("repro/analysis/",)
    _calls = frozenset({
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "time.sleep",
    })
    _timed_waits = ("wait", "wait_for", "get", "put", "join", "acquire")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        path = PurePosixPath(ctx.posix)
        if (
            set(path.parts) & set(self.exempt_dirs)
            or any(m in ctx.posix for m in self.exempt_modules)
            or path.name.startswith(("test_", "conftest"))
        ):
            return
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canon = _dotted(node.func, aliases)
            if canon in self._calls:
                yield self.finding(
                    ctx, node, f"'{canon}' in library code",
                    details={"source": canon},
                )
            elif canon == "random.Random":
                if not (node.args or node.keywords):
                    yield self.finding(
                        ctx, node, "unseeded 'random.Random()' in library "
                        "code", details={"source": canon},
                    )
            elif canon is not None and canon.startswith("random."):
                yield self.finding(
                    ctx, node, f"module-level RNG call '{canon}' in "
                    "library code", details={"source": canon},
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._timed_waits
                and "timeout" in call_keywords(node)
            ):
                yield self.finding(
                    ctx, node,
                    f"timed wait '.{node.func.attr}(timeout=...)' in "
                    "library code",
                    details={"source": f"{node.func.attr}(timeout=)"},
                )


DEFAULT_RULES: tuple[type[Rule], ...] = (
    RawDataAccessRule,
    AllocatorMismatchRule,
    UnsynchronizedStreamRule,
    UnownedWrapRule,
    ThreadOutsideRunnerRule,
    SwallowedErrorRule,
    PoolLeakRule,
    PlacementChargeRule,
    LiteralTagRule,
    WallClockSemanticsRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every built-in rule."""
    return [cls() for cls in DEFAULT_RULES]


def rule_span() -> str:
    """Human-readable id range of the built-in rules, e.g.
    ``HL001-HL011`` — derived so CLI help can never drift again."""
    ids = sorted(cls.id for cls in DEFAULT_RULES)
    return f"{ids[0]}-{ids[-1]}" if len(ids) > 1 else ids[0]
