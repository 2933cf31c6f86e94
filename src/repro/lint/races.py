# repro-lint: disable-file=yield-discipline
#   (the analysis generators below yield plain tuples; they are AST
#   plumbing, not simulation processes)
"""Event-ordering race rules: the static prong of the race detector.

Same-timestamp events dispatch in heap-insertion order under the default
``fifo`` tie-break policy — an *accident of implementation*, not a
contract.  Code that works only because of that accident breaks the
moment the kernel batches same-timestamp dispatch or a replay runs under
a perturbed policy (``Simulation(tie_break="shuffle:<seed>")``).  These
rules catch the three static shapes of that dependence:

- ``same-time-schedule`` — two schedule-family calls in one function that
  can land on the same timestamp, whose callbacks both *write* shared
  state (the final value depends on dispatch order);
- ``order-dependent-callback`` — a same-timestamp sibling pair where one
  callback *reads* state the other writes (the read observes a
  tie-order-dependent snapshot);
- ``tie-break-assumption`` — code outside the kernel touching ``_queue``
  or ``_sequence`` directly (raw heap tie keys are policy-dependent
  integers, not a contract; use ``events_scheduled`` / ``queue_depth`` /
  ``peek()``).

The dynamic prong (:mod:`repro.lint.tie_replay`) replays whole missions
under perturbed policies and bisects digest divergences back to schedule
callsites; these rules are its cheap, always-on complement.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, dotted_parts, register

#: Method names whose call mutates the receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "appendleft", "extendleft",
})

#: Attribute names that enqueue an event when called.
_SCHEDULE_ATTRS = frozenset(
    {"schedule", "call_at", "timeout", "schedule_many", "_schedule_now"}
)


def _norm_time(node: ast.AST) -> str:
    """Canonical text for a time expression, so ``0`` and ``0.0`` match."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return repr(float(node.value))
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd)
            and isinstance(node.operand, ast.Constant)):
        return _norm_time(node.operand)
    return ast.dump(node)


def _symbol(node: ast.AST) -> Optional[str]:
    """The shared-state symbol an expression denotes (``self.x``, ``buf``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    parts = dotted_parts(node)
    if parts is None:
        return None
    return ".".join(parts)


class _CallbackState:
    """Read/write sets of symbols a callback body touches.

    Symbols are dotted names (``self.backlog``, ``counter``); names local
    to the callback (parameters, plain local assignments) are excluded —
    only state visible to a sibling callback can race.
    """

    def __init__(self, reads: Set[str], writes: Set[str]) -> None:
        self.reads = reads
        self.writes = writes


def _analyze_callback(args: ast.arguments, body: List[ast.stmt]) -> _CallbackState:
    reads: Set[str] = set()
    writes: Set[str] = set()
    local: Set[str] = set()
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        local.add(arg.arg)
    if args.vararg is not None:
        local.add(args.vararg.arg)
    if args.kwarg is not None:
        local.add(args.kwarg.arg)
    # ``self``/``cls`` are parameters syntactically, but they denote the
    # *shared receiver* both sibling callbacks run against — attribute
    # state hanging off them races exactly like closure state.
    local.discard("self")
    local.discard("cls")

    nonlocals: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                nonlocals.update(node.names)

    def note_write(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            # A plain local rebind is private to the callback unless the
            # name was hoisted out with nonlocal/global.
            if target.id in nonlocals:
                writes.add(target.id)
            else:
                local.add(target.id)
            return
        sym = _symbol(target)
        if sym is not None and sym.split(".", 1)[0] not in local:
            writes.add(sym)

    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, (ast.Name, ast.Attribute, ast.Subscript)) \
                                and isinstance(getattr(leaf, "ctx", None), ast.Store):
                            note_write(leaf)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                note_write(node.target)
                if isinstance(node, ast.AugAssign):
                    # ``x += 1`` reads the prior value too.
                    sym = _symbol(node.target)
                    if sym is not None and sym.split(".", 1)[0] not in local:
                        reads.add(sym)
            elif isinstance(node, ast.NamedExpr):
                note_write(node.target)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                sym = _symbol(node.func.value)
                if sym is not None and sym.split(".", 1)[0] not in local:
                    if node.func.attr in _MUTATOR_METHODS:
                        writes.add(sym)
                    else:
                        reads.add(sym)
            elif isinstance(node, (ast.Name, ast.Attribute)) \
                    and isinstance(node.ctx, ast.Load):
                sym = _symbol(node)
                if sym is not None and sym.split(".", 1)[0] not in local:
                    reads.add(sym)
    # A symbol both read and written stays in both sets; prefixes of a
    # written symbol do not count as reads of it (handled by exact match).
    return _CallbackState(reads=reads, writes=writes)


class _ScheduleCall:
    """One schedule-family call with its timing key and callback state."""

    __slots__ = ("node", "time_key", "state", "label")

    def __init__(self, node: ast.Call, time_key: str,
                 state: Optional[_CallbackState], label: str) -> None:
        self.node = node
        self.time_key = time_key
        self.state = state
        self.label = label


class _SameTimeAnalysis:
    """Per-function same-timestamp schedule groups for one module."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        #: (function node, [calls]) per analyzed function.
        self.functions: List[Tuple[ast.AST, List[_ScheduleCall]]] = []
        self._module_defs: Dict[str, ast.AST] = {}
        self._class_methods: Dict[ast.ClassDef, Dict[str, ast.AST]] = {}
        tree = ctx.tree
        for node in getattr(tree, "body", []):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._module_defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[item.name] = item
                self._class_methods[node] = methods
        for func, cls in self._iter_functions(tree):
            calls = self._collect_calls(func, cls)
            if len(calls) >= 2:
                self.functions.append((func, calls))

    @staticmethod
    def _iter_functions(tree: ast.AST):
        """Every function/method with its enclosing class (or None)."""
        stack: List[Tuple[ast.AST, Optional[ast.ClassDef]]] = [(tree, None)]
        while stack:
            node, cls = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    stack.append((child, child))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child, cls
                    stack.append((child, cls))

    def _collect_calls(self, func: ast.AST, cls: Optional[ast.ClassDef]
                       ) -> List[_ScheduleCall]:
        calls: List[_ScheduleCall] = []
        by_name: Dict[str, _ScheduleCall] = {}
        local_defs: Dict[str, ast.AST] = {}
        for stmt in func.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local_defs[stmt.name] = stmt

        def resolve(expr: ast.AST) -> Optional[_CallbackState]:
            if isinstance(expr, ast.Lambda):
                return _analyze_callback(expr.args, [ast.Expr(expr.body)])
            if (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self" and cls is not None):
                target = self._class_methods.get(cls, {}).get(expr.attr)
                if target is not None:
                    return _analyze_callback(target.args, target.body)
                return None
            if isinstance(expr, ast.Name):
                target = local_defs.get(expr.id) or self._module_defs.get(expr.id)
                if target is not None:
                    return _analyze_callback(target.args, target.body)
            return None

        def walk_skipping_defs(node: ast.AST):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    continue
                yield child
                yield from walk_skipping_defs(child)

        for node in walk_skipping_defs(func):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr not in _SCHEDULE_ATTRS:
                continue
            entry: Optional[_ScheduleCall] = None
            if attr == "timeout" and node.args:
                entry = _ScheduleCall(
                    node, "delay:" + _norm_time(node.args[0]), None, "timeout")
            elif attr == "call_at" and len(node.args) >= 2:
                entry = _ScheduleCall(
                    node, "at:" + _norm_time(node.args[0]),
                    resolve(node.args[1]), "call_at")
            elif attr == "schedule" and node.args:
                delay: ast.AST = ast.Constant(0)
                if len(node.args) >= 2:
                    delay = node.args[1]
                else:
                    for kw in node.keywords:
                        if kw.arg == "delay":
                            delay = kw.value
                entry = _ScheduleCall(
                    node, "delay:" + _norm_time(delay), None, "schedule")
            elif attr == "_schedule_now" and node.args:
                entry = _ScheduleCall(node, "delay:0.0", None, "_schedule_now")
            elif attr == "schedule_many" and node.args \
                    and isinstance(node.args[0], (ast.List, ast.Tuple)):
                for elt in node.args[0].elts:
                    calls.append(_ScheduleCall(
                        node, "delay:" + _norm_time(elt), None, "schedule_many"))
                continue
            if entry is not None:
                calls.append(entry)

        # Second pass: ``t = sim.timeout(0)`` followed by
        # ``t.callbacks.append(cb)`` attaches cb as t's callback.
        for stmt in func.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                for entry in calls:
                    if entry.node is stmt.value:
                        by_name[stmt.targets[0].id] = entry
        for node in walk_skipping_defs(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append" and node.args):
                chain = dotted_parts(node.func.value)
                if chain and len(chain) == 2 and chain[1] == "callbacks" \
                        and chain[0] in by_name:
                    entry = by_name[chain[0]]
                    state = resolve(node.args[0])
                    if state is not None:
                        if entry.state is None:
                            entry.state = state
                        else:
                            entry.state.reads |= state.reads
                            entry.state.writes |= state.writes
        return calls

    def groups(self) -> Iterator[List[_ScheduleCall]]:
        """Same-timestamp groups (≥2 calls sharing a time key)."""
        for _func, calls in self.functions:
            buckets: Dict[str, List[_ScheduleCall]] = {}
            for call in calls:
                buckets.setdefault(call.time_key, []).append(call)
            for key in sorted(buckets):
                if len(buckets[key]) >= 2:
                    yield buckets[key]


def _conflicts(group: List[_ScheduleCall]):
    """Yield (kind, anchor, other, symbols) for conflicting pairs.

    ``kind`` is ``"ww"`` (both write) or ``"rw"`` (anchor reads what the
    other writes); the anchor is the call the finding is reported on.
    """
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            a, b = group[i], group[j]
            if a.state is None or b.state is None:
                continue
            shared_writes = a.state.writes & b.state.writes
            if shared_writes:
                yield "ww", b, a, sorted(shared_writes)
            rw_b = (a.state.writes & b.state.reads) - shared_writes
            if rw_b:
                yield "rw", b, a, sorted(rw_b)
            rw_a = (b.state.writes & a.state.reads) - shared_writes
            if rw_a:
                yield "rw", a, b, sorted(rw_a)


# ----------------------------------------------------------------------
# Rule 11: same-time writes to shared state
# ----------------------------------------------------------------------
@register
class SameTimeScheduleRule(Rule):
    """Same-timestamp callbacks that both write shared state race.

    When two schedule-family calls in one function land on the same
    timestamp and their callbacks both mutate the same attribute or
    closure, the final value depends on dispatch order within the tie
    group — which is heap-insertion order today and anything else the day
    the kernel batches same-timestamp dispatch.  Either stagger the
    schedules, merge the callbacks, or make the writes commutative.
    """

    id = "same-time-schedule"
    description = ("same-timestamp schedule calls whose callbacks write "
                   "shared state — dispatch-order race")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        analysis = _SameTimeAnalysis(ctx)
        for group in analysis.groups():
            for kind, anchor, other, symbols in _conflicts(group):
                if kind != "ww":
                    continue
                yield self.finding(
                    ctx, anchor.node,
                    f"{anchor.label}() lands on the same timestamp as the "
                    f"{other.label}() on line {other.node.lineno} and both "
                    f"callbacks write {', '.join(symbols)}; the surviving "
                    "value depends on tie-break order",
                )


# ----------------------------------------------------------------------
# Rule 12: same-time read-after-write
# ----------------------------------------------------------------------
@register
class OrderDependentCallbackRule(Rule):
    """A callback reading state a same-timestamp sibling writes races.

    The reader observes either the old or the new value depending purely
    on which same-timestamp event dispatches first.  Make the dependency
    explicit (chain the callbacks, or schedule the reader strictly
    later) instead of relying on insertion order.
    """

    id = "order-dependent-callback"
    description = ("callback reads state written by a same-timestamp "
                   "sibling callback — result depends on tie order")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        analysis = _SameTimeAnalysis(ctx)
        for group in analysis.groups():
            for kind, anchor, other, symbols in _conflicts(group):
                if kind != "rw":
                    continue
                yield self.finding(
                    ctx, anchor.node,
                    f"{anchor.label}() callback reads {', '.join(symbols)} "
                    f"which the same-timestamp {other.label}() on line "
                    f"{other.node.lineno} writes; the value it sees depends "
                    "on tie-break order",
                )


# ----------------------------------------------------------------------
# Rule 13: direct queue/sequence access
# ----------------------------------------------------------------------
@register
class TieBreakAssumptionRule(Rule):
    """Code outside the kernel must not touch ``_queue`` / ``_sequence``.

    The heap's tie component is a policy-dependent key (a counter under
    fifo, its negation under lifo, a 128-bit composite under shuffle),
    not a stable contract.  Comparing, indexing or counting via
    ``sim._queue`` / ``sim._sequence`` bakes the fifo accident into the
    caller.  Use ``Simulation.events_scheduled`` / ``queue_depth`` /
    ``peek()``, or the ``tie_break`` policy hook.
    """

    id = "tie-break-assumption"
    description = ("direct _queue/_sequence access outside the kernel — "
                   "tie keys are policy-dependent, use the public accessors")
    #: The kernel triple implements the queue; it is the only sanctioned
    #: toucher of its own internals.
    exempt_path_suffixes = ("sim/kernel.py", "sim/events.py", "sim/process.py")

    _INTERNALS = frozenset({"_queue", "_sequence"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in self._INTERNALS:
                continue
            yield self.finding(
                ctx, node,
                f"direct access to {node.attr} couples this code to "
                "policy-dependent heap tie keys; use "
                "Simulation.events_scheduled / queue_depth / peek() "
                "instead",
            )


#: The three tie-sensitivity rule ids, in registry order (they run with
#: every other rule in ``repro-lint src/repro``).
RACE_RULE_IDS = (
    SameTimeScheduleRule.id,
    OrderDependentCallbackRule.id,
    TieBreakAssumptionRule.id,
)
