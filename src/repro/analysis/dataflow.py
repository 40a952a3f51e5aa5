"""Interprocedural data-flow summaries over the project index.

This is the second layer under the cross-function rules: a small
abstract-interpretation framework that propagates symbolic facts —
stream handles and their sync state, resolved-vs-literal device
placements, pool-handle ownership, decision-path membership — along
the call edges of :class:`~repro.analysis.project.ProjectIndex`.

Design constraints (deterministic, fast, no false-positive bias):

- **Bounded call depth.** Summaries recurse through callees at most
  :data:`MAX_CALL_DEPTH` levels deep.
- **Explicit widening.** On recursion cycles or at the depth bound an
  analysis returns its class-level *widened* summary — an explicit
  ⊤ that rules must treat as "assume safe", so imprecision can only
  silence a finding, never invent one.  Unresolvable callees are the
  opposite of widened: they contribute nothing at all (neither hazard
  nor discharge), which preserves the single-file rules' behavior.
- **Deterministic memoization.** Each function's summary is computed
  once, at the depth of its first demand; the engine's fixed traversal
  order (sorted files, fixed rule order) makes the cache contents —
  and therefore the findings — bit-identical across runs.

Rules access everything through one :class:`ProjectContext`, which the
engine builds per run and hands to rules that set ``uses_project``.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Mapping, Sequence

from repro.analysis.engine import FileContext
from repro.analysis.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    ResolvedCall,
)

__all__ = [
    "MAX_CALL_DEPTH",
    "Scope",
    "Analysis",
    "StreamSummary",
    "StreamFacts",
    "StreamAnalysis",
    "ChargeSummary",
    "ChargeFacts",
    "ChargeAnalysis",
    "PoolSummary",
    "PoolFacts",
    "PoolAnalysis",
    "DecisionPaths",
    "ProjectContext",
    "tail_name",
    "call_keywords",
    "literal_device_id",
]

#: How deep summary computation follows call edges before widening.
MAX_CALL_DEPTH = 4

#: Methods that discharge a stream's completion obligation.
SYNC_METHODS = ("synchronize", "drain", "wait_event")

#: Calls whose assigned result counts as a resolved device placement.
RESOLVER_NAMES = ("resolve", "resolve_device", "select_device")

#: Decision types whose construction anchors the determinism lint.
#: Trace events join governor decisions here: everything that feeds a
#: recorded trace must be reproducible, so the recorder/replayer code
#: paths fall under the same nondeterminism rule (HL010).
DECISION_TYPES = (
    "repro.control.governors.Decision",
    "repro.trace.format.TraceEvent",
)


def tail_name(node: ast.AST) -> str | None:
    """Trailing identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def call_keywords(call: ast.Call) -> dict[str, ast.expr]:
    return {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}


@dataclasses.dataclass(frozen=True)
class Scope:
    """Resolution context for one function body."""

    index: ProjectIndex
    module: ModuleInfo | None
    owner: ClassInfo | None
    local_types: Mapping[str, ClassInfo]

    def resolve(self, call: ast.Call) -> ResolvedCall | None:
        if self.module is None:
            return None
        return self.index.resolve_call(
            self.module, call, self.local_types, self.owner
        )

    def map_args(
        self, call: ast.Call, resolved: ResolvedCall
    ) -> list[tuple[str, ast.expr]]:
        return self.index.map_args(call, resolved)

    def canonical(self, node: ast.AST) -> str | None:
        if self.module is None:
            return None
        return self.index.canonical_name(self.module, node, self.local_types)


_EMPTY_SCOPE = Scope(index=None, module=None, owner=None, local_types={})  # type: ignore[arg-type]


def empty_scope() -> Scope:
    """A scope that resolves nothing: pure intra-procedural analysis."""
    return _EMPTY_SCOPE


class Analysis:
    """Base for memoized, cycle-widened per-function summaries."""

    #: The explicit ⊤ returned on cycles or past the depth bound.
    widened: object = None

    def __init__(self, index: ProjectIndex):
        self.index = index
        self._memo: dict[str, object] = {}
        self._active: set[str] = set()

    def scope_for(self, fi: FunctionInfo) -> Scope:
        mod = self.index.modules.get(fi.module)
        if mod is None:
            return empty_scope()
        owner = mod.classes.get(fi.owner) if fi.owner else None
        return Scope(self.index, mod, owner, self.index.local_class_types(fi))

    def summary(self, fi: FunctionInfo, depth: int = 0):
        cached = self._memo.get(fi.key)
        if cached is not None:
            return cached
        if depth >= MAX_CALL_DEPTH or fi.key in self._active:
            return self.widened
        self._active.add(fi.key)
        try:
            result = self._compute(fi, depth)
        finally:
            self._active.discard(fi.key)
        self._memo[fi.key] = result
        return result

    def summary_of_call(self, scope: Scope, call: ast.Call, depth: int):
        """(resolved, summary) for a call, or (None, None)."""
        resolved = scope.resolve(call)
        if resolved is None:
            return None, None
        return resolved, self.summary(resolved.func, depth + 1)

    def _compute(self, fi: FunctionInfo, depth: int):
        raise NotImplementedError


# -- streams (HL003) ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StreamSummary:
    """How one function treats stream handles it is given or creates."""

    syncs: frozenset = frozenset()           # param names it synchronizes
    async_unsynced: frozenset = frozenset()  # params used async, never synced
    returns_fresh: bool = False              # returns a stream it created
    syncs_all: bool = False                  # widened: assume discharged


@dataclasses.dataclass
class StreamFacts:
    """Flow-insensitive stream facts for one function body."""

    created: dict = dataclasses.field(default_factory=dict)  # name -> node
    async_used: set = dataclasses.field(default_factory=set)
    synced: set = dataclasses.field(default_factory=set)
    any_sync: bool = False
    returned: set = dataclasses.field(default_factory=set)
    escaped: set = dataclasses.field(default_factory=set)  # returned or stored
    returns_fresh: bool = False


def collect_stream_facts(
    fn: ast.AST,
    scope: Scope,
    analysis: "StreamAnalysis | None" = None,
    depth: int = 0,
) -> StreamFacts:
    """Gather stream facts; with ``analysis`` the effects of resolved
    callees (sync-on-behalf, async-use-on-behalf, fresh-stream return)
    are folded in."""
    facts = StreamFacts()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call = node.value
            fresh = tail_name(call.func) == "Stream"
            if not fresh and analysis is not None:
                _, cs = analysis.summary_of_call(scope, call, depth)
                fresh = cs is not None and cs.returns_fresh
            if fresh:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        facts.created[tgt.id] = call
        if isinstance(node, ast.Call):
            fname = tail_name(node.func)
            if fname in SYNC_METHODS:
                facts.any_sync = True
                if isinstance(node.func, ast.Attribute) and isinstance(
                    node.func.value, ast.Name
                ):
                    facts.synced.add(node.func.value.id)
            kws = call_keywords(node)
            stream_kw = kws.get("stream")
            mode_kw = kws.get("mode") or kws.get("stream_mode")
            if (
                isinstance(stream_kw, ast.Name)
                and tail_name(mode_kw) == "ASYNC"
            ):
                facts.async_used.add(stream_kw.id)
            if analysis is not None:
                resolved, cs = analysis.summary_of_call(scope, node, depth)
                if cs is not None:
                    for param, arg in scope.map_args(node, resolved):
                        if not isinstance(arg, ast.Name):
                            continue
                        if cs.syncs_all or param in cs.syncs:
                            facts.synced.add(arg.id)
                        elif param in cs.async_unsynced:
                            facts.async_used.add(arg.id)
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Call) and analysis is not None:
                _, cs = analysis.summary_of_call(scope, node.value, depth)
                if cs is not None and cs.returns_fresh:
                    facts.returns_fresh = True
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name):
                    facts.returned.add(sub.id)
                    facts.escaped.add(sub.id)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            for tgt in node.targets:
                if isinstance(tgt, ast.Attribute):
                    facts.escaped.add(node.value.id)
    if facts.returned & set(facts.created):
        facts.returns_fresh = True
    return facts


class StreamAnalysis(Analysis):
    widened = StreamSummary(syncs_all=True)

    def facts(self, fn: ast.AST, scope: Scope) -> StreamFacts:
        return collect_stream_facts(fn, scope, self, depth=0)

    def _compute(self, fi: FunctionInfo, depth: int) -> StreamSummary:
        scope = self.scope_for(fi)
        facts = collect_stream_facts(fi.node, scope, self, depth)
        params = set(fi.params)
        syncs = frozenset(facts.synced & params)
        if facts.any_sync:
            async_unsynced: frozenset = frozenset()
        else:
            async_unsynced = frozenset(
                (facts.async_used & params) - facts.synced
            )
        return StreamSummary(
            syncs=syncs,
            async_unsynced=async_unsynced,
            returns_fresh=facts.returns_fresh,
        )


# -- device charges (HL008) ---------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ChargeSummary:
    """How one function routes device ordinals into charged work."""

    charging: frozenset = frozenset()  # params reaching a device_id= kwarg
    resolves: bool = False             # binds a resolved placement


def literal_device_id(node: ast.AST) -> int | None:
    """Literal device ordinals: ints, ``-1``, or ``HOST_DEVICE_ID``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return int(node.value)
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -int(node.operand.value)
    if tail_name(node) == "HOST_DEVICE_ID":
        return -1
    return None


@dataclasses.dataclass
class ChargeFacts:
    """Charge-flow facts for one function body."""

    resolved_names: set = dataclasses.field(default_factory=set)
    resolves: bool = False  # locally or via a resolved callee
    #: (call, device) for calls with a literal device_id= kwarg
    literal_kw: list = dataclasses.field(default_factory=list)
    #: (call, device, callee display name, callee resolves) for literal
    #: ordinals handed to a callee parameter that charges them
    literal_via_helper: list = dataclasses.field(default_factory=list)
    charging_params: set = dataclasses.field(default_factory=set)


def collect_charge_facts(
    fn: ast.AST,
    scope: Scope,
    params: Sequence[str] = (),
    analysis: "ChargeAnalysis | None" = None,
    depth: int = 0,
) -> ChargeFacts:
    facts = ChargeFacts()
    params = set(params)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if tail_name(node.value.func) in RESOLVER_NAMES:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        facts.resolved_names.add(tgt.id)
        if not isinstance(node, ast.Call):
            continue
        if tail_name(node.func) in RESOLVER_NAMES:
            continue  # the resolving call itself never "charges"
        kws = call_keywords(node)
        dev_kw = kws.get("device_id")
        if dev_kw is not None:
            dev = literal_device_id(dev_kw)
            if dev is not None:
                facts.literal_kw.append((node, dev))
            elif isinstance(dev_kw, ast.Name) and dev_kw.id in params:
                facts.charging_params.add(dev_kw.id)
        if analysis is not None:
            resolved, cs = analysis.summary_of_call(scope, node, depth)
            if cs is None:
                continue
            if cs.resolves:
                facts.resolves = True
            for param, arg in scope.map_args(node, resolved):
                if param not in cs.charging:
                    continue
                dev = literal_device_id(arg)
                if dev is not None:
                    facts.literal_via_helper.append(
                        (node, dev, resolved.func.qualname, cs.resolves)
                    )
                elif isinstance(arg, ast.Name) and arg.id in params:
                    facts.charging_params.add(arg.id)
    facts.resolves = facts.resolves or bool(facts.resolved_names)
    return facts


class ChargeAnalysis(Analysis):
    widened = ChargeSummary()

    def facts(self, fn: ast.AST, scope: Scope) -> ChargeFacts:
        return collect_charge_facts(fn, scope, (), self, depth=0)

    def _compute(self, fi: FunctionInfo, depth: int) -> ChargeSummary:
        scope = self.scope_for(fi)
        facts = collect_charge_facts(fi.node, scope, fi.params, self, depth)
        return ChargeSummary(
            charging=frozenset(facts.charging_params),
            resolves=facts.resolves,
        )


# -- pool handles (HL009) -----------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PoolSummary:
    """How one function treats pool handles it is given or creates."""

    releases: frozenset = frozenset()   # param names it releases/trims
    returns_unreleased: bool = False    # returns an acquired, unreleased pool
    releases_all: bool = False          # widened: assume discharged


@dataclasses.dataclass
class PoolFacts:
    """Pool-ownership facts for one function body."""

    local_pools: dict = dataclasses.field(default_factory=dict)   # name -> node
    #: name -> (binding call, origin display name) for pools handed
    #: back by a callee that acquired and never released
    callee_pools: dict = dataclasses.field(default_factory=dict)
    acquired: set = dataclasses.field(default_factory=set)
    released: set = dataclasses.field(default_factory=set)
    any_release: bool = False
    returned: set = dataclasses.field(default_factory=set)
    attr_stored: set = dataclasses.field(default_factory=set)
    #: name -> list of (call, resolved|None, mapped param or None)
    passes: dict = dataclasses.field(default_factory=dict)
    #: (call, origin display name) for discarded unreleased-pool results
    discarded: list = dataclasses.field(default_factory=list)
    returns_unreleased_inline: bool = False


def collect_pool_facts(
    fn: ast.AST,
    scope: Scope,
    analysis: "PoolAnalysis | None" = None,
    depth: int = 0,
) -> PoolFacts:
    facts = PoolFacts()

    def callee_pool_origin(call: ast.Call) -> str | None:
        if analysis is None:
            return None
        resolved, ps = analysis.summary_of_call(scope, call, depth)
        if ps is not None and ps.returns_unreleased:
            return resolved.func.qualname
        return None

    returned_calls: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Call):
                returned_calls.add(id(node.value))
                if callee_pool_origin(node.value) is not None:
                    facts.returns_unreleased_inline = True
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name):
                    facts.returned.add(sub.id)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            for tgt in node.targets:
                if isinstance(tgt, ast.Attribute):
                    facts.attr_stored.add(node.value.id)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call = node.value
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if tail_name(call.func) == "pool_for":
                for name in names:
                    facts.local_pools[name] = call
            else:
                origin = callee_pool_origin(call)
                if origin is not None:
                    for name in names:
                        facts.callee_pools[name] = (call, origin)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            origin = callee_pool_origin(node.value)
            if origin is not None:
                facts.discarded.append((node.value, origin))
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            recv = node.func.value
            recv_name = recv.id if isinstance(recv, ast.Name) else None
            if attr == "acquire":
                if recv_name is not None:
                    facts.acquired.add(recv_name)
            elif attr in ("release", "trim"):
                facts.any_release = True
                if recv_name is not None:
                    facts.released.add(recv_name)
        if id(node) in returned_calls:
            continue
        resolved = scope.resolve(node) if analysis is not None else None
        mapped = (
            dict(scope.map_args(node, resolved)) if resolved is not None else {}
        )
        arg_names = {a.id for a in node.args if isinstance(a, ast.Name)}
        arg_names |= {
            kw.value.id
            for kw in node.keywords
            if isinstance(kw.value, ast.Name)
        }
        for name in arg_names:
            param = next(
                (p for p, a in mapped.items()
                 if isinstance(a, ast.Name) and a.id == name),
                None,
            )
            facts.passes.setdefault(name, []).append((node, resolved, param))
    return facts


class PoolAnalysis(Analysis):
    widened = PoolSummary(releases_all=True)

    def facts(self, fn: ast.AST, scope: Scope) -> PoolFacts:
        return collect_pool_facts(fn, scope, self, depth=0)

    def param_released_by(
        self, resolved: ResolvedCall | None, param: str | None, depth: int = 0
    ) -> bool:
        """True when passing a pool as ``param`` discharges it."""
        if resolved is None:
            return True  # unresolvable callee: give it the benefit
        ps = self.summary(resolved.func, depth + 1)
        if ps.releases_all:
            return True
        return param is not None and param in ps.releases

    def _compute(self, fi: FunctionInfo, depth: int) -> PoolSummary:
        scope = self.scope_for(fi)
        facts = collect_pool_facts(fi.node, scope, self, depth)
        params = set(fi.params)
        releases = set(facts.released & params)
        for name, passes in facts.passes.items():
            if name not in params:
                continue
            for _call, resolved, param in passes:
                if resolved is not None:
                    ps = self.summary(resolved.func, depth + 1)
                    if ps.releases_all or (param and param in ps.releases):
                        releases.add(name)
        owned = set(facts.callee_pools) | {
            n for n in facts.local_pools if n in facts.acquired
        }
        leaked_return = bool(
            (facts.returned & owned) - facts.released - releases
        )
        return PoolSummary(
            releases=frozenset(releases),
            returns_unreleased=leaked_return or facts.returns_unreleased_inline,
        )


# -- decision paths (HL010) ---------------------------------------------------

class DecisionPaths:
    """Which functions can feed a governor :class:`Decision`.

    The *path set* is: every function that constructs a Decision, every
    direct caller of one (the ``decide()`` implementations feeding its
    arguments), and — bounded by ``depth`` — the transitive callees of
    those, whose return values flow upward into the decision.  The
    expansion is a deterministic BFS over the sorted call graph.
    """

    def __init__(self, index: ProjectIndex, depth: int = 3,
                 decision_types: Sequence[str] = DECISION_TYPES):
        self.index = index
        self.depth = depth
        self.decision_types = tuple(decision_types)
        self._members: dict[str, str] | None = None

    def _build(self) -> dict[str, str]:
        makers: list[str] = []
        for fi in self.index.iter_functions():
            mod = self.index.modules.get(fi.module)
            if mod is None:
                continue
            owner = mod.classes.get(fi.owner) if fi.owner else None
            local = self.index.local_class_types(fi)
            for node in ast.walk(fi.node):
                if not isinstance(node, ast.Call):
                    continue
                canon = self.index.canonical_name(mod, node.func, local)
                if canon in self.decision_types:
                    makers.append(fi.key)
                    break
        seeds: dict[str, str] = {}
        for key in makers:
            seeds.setdefault(key, key)
        for key in list(makers):
            for caller in self.index.callers_of(key):
                seeds.setdefault(caller, caller)
        members = dict(seeds)
        edges = self.index.call_edges()
        frontier = sorted(seeds)
        for _hop in range(self.depth):
            nxt: list[str] = []
            for key in frontier:
                for callee in edges.get(key, ()):
                    if callee not in members:
                        members[callee] = members[key]
                        nxt.append(callee)
            frontier = sorted(nxt)
            if not frontier:
                break
        return members

    def anchor(self, fi: FunctionInfo) -> str | None:
        """The seed function through which ``fi`` reaches a Decision,
        or None when ``fi`` is not on any decision path."""
        if self._members is None:
            self._members = self._build()
        return self._members.get(fi.key)


# -- the bundle handed to rules ----------------------------------------------

class ProjectContext:
    """Shared interprocedural state for one lint run."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.streams = StreamAnalysis(index)
        self.charges = ChargeAnalysis(index)
        self.pools = PoolAnalysis(index)
        self.decisions = DecisionPaths(index)

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectContext":
        return cls(ProjectIndex.build(contexts))

    def scope(self, ctx: FileContext, fn: ast.AST) -> Scope:
        """Resolution scope for a function node in a linted file."""
        mod = self.index.module_for(ctx)
        if mod is None:
            return empty_scope()
        fi = self.index.function_at(fn)
        if fi is None:
            return Scope(self.index, mod, None, {})
        owner = mod.classes.get(fi.owner) if fi.owner else None
        return Scope(self.index, mod, owner, self.index.local_class_types(fi))

    def iter_file_functions(
        self, ctx: FileContext
    ) -> Iterator[tuple[ast.AST, FunctionInfo | None]]:
        """Every function node in the file, with its index entry."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, self.index.function_at(node)
