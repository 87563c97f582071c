"""A small algebra of hierarchical state machines: interpreter and compiler.

Three node kinds compose a finite tree:

* ``Automaton``: named states plus guarded, action-carrying transitions.
* ``Flow``: binary node that offers the same event to both children; every
  child that can execute it does, left child first.
* ``Interleave``: quantified node that keeps one isolated child per value
  of a payload variable, created on first sight.

Every node may declare attributes (state variables) and an optional node
action. Attribute lookup is lexical: a child reads and writes attributes
declared by its ancestors unless it shadows them. Within one event step,
actions run bottom-up: a fired transition's action first, then the node
actions of the enclosing nodes along the executed path.

Guards, actions and attribute initializers are plain callables registered
by name and resolved when the tree is built. Guards and actions receive
``(payload, attrs)``; initializers take no arguments. An event that no
path can execute is a no-op and leaves no trace anywhere in the tree.

Two ways run a tree. ``build`` and ``step`` interpret it: every step walks
the instance tree, resolves attributes through chained scopes and returns
a ``StepReport`` of the transitions fired and the actions run, with their
results. The interpreter is the executable specification, and the tests
hold the compiled form to it.

``compile`` validates the tree as ``build`` does, resolves every guard,
action and initializer once, and returns a ``Program`` whose ``step`` runs
those closures in the interpreter's order and returns only whether the
event executed; it allocates no event message and no report. Each key's
child is one flat attribute dict plus the current state of each automaton.
Only trees that flatten that way compile: an interleave at the root, with
no attributes or action of its own, over flows and automata whose
attributes are all declared on the interleave's child. Anything else,
such as a nested interleave, attributes on two levels or a shadowed name,
raises ``BuildError``. Because the dict is flat, an action that writes an
undeclared name adds it, where the interpreter raises ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Union

Registry = Mapping[str, Callable]


class BuildError(ValueError):
    """A composition tree references something that does not resolve."""


class DispatchError(KeyError):
    """An event payload is missing the variable an interleave dispatches on."""


# --------------------------------------------------------------------------
# Composition tree (immutable templates)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeDecl:
    name: str
    initializer: str


@dataclass(frozen=True)
class Transition:
    event: str
    source: str
    target: str
    guard: str | None = None
    action: str | None = None


@dataclass(frozen=True)
class Automaton:
    name: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]
    attributes: tuple[AttributeDecl, ...] = ()
    action: str | None = None


@dataclass(frozen=True)
class Flow:
    name: str
    left: "AstdNode"
    right: "AstdNode"
    attributes: tuple[AttributeDecl, ...] = ()
    action: str | None = None


@dataclass(frozen=True)
class Interleave:
    name: str
    variable: str
    child: "AstdNode"
    attributes: tuple[AttributeDecl, ...] = ()
    action: str | None = None


AstdNode = Union[Automaton, Flow, Interleave]


@dataclass(frozen=True)
class EventMessage:
    label: str
    payload: Mapping[str, Any]


# --------------------------------------------------------------------------
# Execution report
# --------------------------------------------------------------------------

@dataclass
class ActionRun:
    """One callable executed during a step, in execution order."""

    node: str
    kind: str  # "transition" or "node"
    action: str
    result: Any = None


@dataclass
class FiredTransition:
    node: str
    event: str
    source: str
    target: str


@dataclass
class StepReport:
    executed: bool = False
    fired: list[FiredTransition] = field(default_factory=list)
    actions: list[ActionRun] = field(default_factory=list)


# --------------------------------------------------------------------------
# Attribute scoping
# --------------------------------------------------------------------------

class AttributeScope:
    """Chained attribute store; names resolve to the nearest declaration."""

    __slots__ = ("_values", "_parent")

    def __init__(self, values: dict[str, Any], parent: "AttributeScope | None" = None):
        self._values = values
        self._parent = parent

    def __contains__(self, name: str) -> bool:
        scope: AttributeScope | None = self
        while scope is not None:
            if name in scope._values:
                return True
            scope = scope._parent
        return False

    def __getitem__(self, name: str) -> Any:
        scope: AttributeScope | None = self
        while scope is not None:
            if name in scope._values:
                return scope._values[name]
            scope = scope._parent
        raise KeyError(f"attribute {name!r} is not declared in any enclosing scope")

    def __setitem__(self, name: str, value: Any) -> None:
        scope: AttributeScope | None = self
        while scope is not None:
            if name in scope._values:
                scope._values[name] = value
                return
            scope = scope._parent
        raise KeyError(f"attribute {name!r} is not declared in any enclosing scope")

    def get(self, name: str, default: Any = None) -> Any:
        try:
            return self[name]
        except KeyError:
            return default

    def local_items(self) -> dict[str, Any]:
        """The attributes declared at this level only."""
        return dict(self._values)


# --------------------------------------------------------------------------
# Instances
# --------------------------------------------------------------------------

class AutomatonInstance:
    __slots__ = ("node", "scope", "state", "_registry")

    def __init__(self, node: Automaton, registry: Registry, scope: AttributeScope):
        self.node = node
        self.scope = scope
        self.state = node.initial
        self._registry = registry

    def _select(self, ev: EventMessage) -> Transition | None:
        for tr in self.node.transitions:
            if tr.source != self.state or tr.event != ev.label:
                continue
            if tr.guard is None or self._registry[tr.guard](ev.payload, self.scope):
                return tr
        return None

    def _step(self, ev: EventMessage, report: StepReport) -> bool:
        tr = self._select(ev)
        if tr is None:
            return False
        if tr.action is not None:
            result = self._registry[tr.action](ev.payload, self.scope)
            report.actions.append(ActionRun(self.node.name, "transition", tr.action, result))
        self.state = tr.target
        report.fired.append(FiredTransition(self.node.name, ev.label, tr.source, tr.target))
        _run_node_action(self.node, self._registry, self.scope, ev, report)
        return True


class FlowInstance:
    __slots__ = ("node", "scope", "left", "right", "_registry")

    def __init__(self, node: Flow, registry: Registry, scope: AttributeScope):
        self.node = node
        self.scope = scope
        self._registry = registry
        self.left = _instantiate(node.left, registry, scope)
        self.right = _instantiate(node.right, registry, scope)

    def _step(self, ev: EventMessage, report: StepReport) -> bool:
        # Left child always goes first; the right child's guards see any
        # attribute writes the left child made during this same step.
        ran_left = self.left._step(ev, report)
        ran_right = self.right._step(ev, report)
        if ran_left or ran_right:
            _run_node_action(self.node, self._registry, self.scope, ev, report)
            return True
        return False


class InterleaveInstance:
    __slots__ = ("node", "scope", "children", "_registry")

    def __init__(self, node: Interleave, registry: Registry, scope: AttributeScope):
        self.node = node
        self.scope = scope
        self._registry = registry
        self.children: dict[Any, Any] = {}

    def ensure_child(self, value: Any):
        """Get or create the persistent child bound to ``value``."""
        child = self.children.get(value)
        if child is None:
            child = _instantiate(self.node.child, self._registry, self.scope)
            self.children[value] = child
        return child

    def evict(self, value: Any) -> bool:
        """Drop the child bound to ``value``. Never called by the runtime."""
        return self.children.pop(value, None) is not None

    def _step(self, ev: EventMessage, report: StepReport) -> bool:
        try:
            value = ev.payload[self.node.variable]
        except KeyError:
            raise DispatchError(
                f"event {ev.label!r} has no {self.node.variable!r} in its payload"
            ) from None
        child = self.children.get(value)
        fresh = child is None
        if fresh:
            child = _instantiate(self.node.child, self._registry, self.scope)
        executed = child._step(ev, report)
        if executed:
            if fresh:
                self.children[value] = child
            _run_node_action(self.node, self._registry, self.scope, ev, report)
        # A fresh child that refused the event is discarded: refusal leaves
        # no trace.
        return executed


AstdInstance = Union[AutomatonInstance, FlowInstance, InterleaveInstance]


def _run_node_action(node: AstdNode, registry: Registry, scope: AttributeScope,
                     ev: EventMessage, report: StepReport) -> None:
    if node.action is not None:
        result = registry[node.action](ev.payload, scope)
        report.actions.append(ActionRun(node.name, "node", node.action, result))


# --------------------------------------------------------------------------
# Build and drive
# --------------------------------------------------------------------------

def _check_ref(registry: Registry, name: str, role: str, node: AstdNode) -> None:
    if name not in registry:
        raise BuildError(f"unresolved {role} {name!r} in node {node.name!r}")
    if not callable(registry[name]):
        raise BuildError(f"{role} {name!r} in node {node.name!r} is not callable")


def _validate(node: AstdNode, registry: Registry) -> None:
    names = [decl.name for decl in node.attributes]
    if len(set(names)) != len(names):
        raise BuildError(f"duplicate attribute names in node {node.name!r}")
    for decl in node.attributes:
        _check_ref(registry, decl.initializer, "initializer", node)
    if node.action is not None:
        _check_ref(registry, node.action, "action", node)

    if isinstance(node, Automaton):
        if not node.states:
            raise BuildError(f"automaton {node.name!r} has no states")
        if node.initial not in node.states:
            raise BuildError(f"automaton {node.name!r} initial state {node.initial!r} unknown")
        for tr in node.transitions:
            if tr.source not in node.states or tr.target not in node.states:
                raise BuildError(
                    f"automaton {node.name!r} transition {tr.source!r}->{tr.target!r} "
                    f"uses an unknown state"
                )
            if tr.guard is not None:
                _check_ref(registry, tr.guard, "guard", node)
            if tr.action is not None:
                _check_ref(registry, tr.action, "action", node)
    elif isinstance(node, Flow):
        _validate(node.left, registry)
        _validate(node.right, registry)
    elif isinstance(node, Interleave):
        if not node.variable:
            raise BuildError(f"interleave {node.name!r} has an empty variable name")
        _validate(node.child, registry)
    else:
        raise BuildError(f"unknown node kind: {node!r}")


def _instantiate(node: AstdNode, registry: Registry, parent: AttributeScope | None):
    scope = AttributeScope(
        {decl.name: registry[decl.initializer]() for decl in node.attributes},
        parent,
    )
    if isinstance(node, Automaton):
        return AutomatonInstance(node, registry, scope)
    if isinstance(node, Flow):
        return FlowInstance(node, registry, scope)
    return InterleaveInstance(node, registry, scope)


def build(spec: AstdNode, registry: Registry) -> AstdInstance:
    """Validate a composition tree and return a fresh runnable instance.

    All guard, action and initializer references must resolve in
    ``registry``; the first missing one is reported by name.
    """
    _validate(spec, registry)
    return _instantiate(spec, registry, None)


def step(instance: AstdInstance, ev: EventMessage) -> StepReport:
    """Deliver one event and report every transition and action it ran."""
    report = StepReport()
    report.executed = instance._step(ev, report)
    return report


# --------------------------------------------------------------------------
# Compiled form
# --------------------------------------------------------------------------

# A compiled node: (label, payload, attrs, states) -> whether it executed.
_Run = Callable[[str, Mapping[str, Any], dict, list], bool]


class CompiledChild:
    """One key's state in a compiled program: the flat attribute dict and
    the current state of every automaton, in pre-order."""

    __slots__ = ("attrs", "states")

    def __init__(self, attrs: dict[str, Any], states: list[str]):
        self.attrs = attrs
        self.states = states


class Program:
    """An interleave compiled by :func:`compile`: one child per key."""

    __slots__ = ("children", "_variable", "_inits", "_initial_states", "_run")

    def __init__(self, variable: str, inits: tuple[tuple[str, Callable], ...],
                 initial_states: tuple[str, ...], run: _Run):
        self.children: dict[Any, CompiledChild] = {}
        self._variable = variable
        self._inits = inits
        self._initial_states = initial_states
        self._run = run

    def _fresh(self) -> CompiledChild:
        return CompiledChild({name: init() for name, init in self._inits},
                             list(self._initial_states))

    def ensure_child(self, key: Any) -> CompiledChild:
        """Get or create the persistent child bound to ``key``."""
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = self._fresh()
        return child

    def step(self, label: str, payload: Mapping[str, Any]) -> bool:
        """Deliver one event; return whether it executed."""
        try:
            key = payload[self._variable]
        except KeyError:
            raise DispatchError(
                f"event {label!r} has no {self._variable!r} in its payload"
            ) from None
        child = self.children.get(key)
        if child is not None:
            return self._run(label, payload, child.attrs, child.states)
        child = self._fresh()
        if self._run(label, payload, child.attrs, child.states):
            self.children[key] = child
            return True
        return False  # a fresh child that refused the event leaves no trace


def _compile_node(node: AstdNode, top: AstdNode, registry: Registry,
                  automata: list[Automaton]) -> _Run:
    if node is not top and node.attributes:
        raise BuildError(
            f"node {node.name!r} declares attributes below {top.name!r}: a compiled "
            f"program keeps one flat attribute dict per key, so every attribute "
            f"must be declared on {top.name!r}"
        )
    if isinstance(node, Interleave):
        raise BuildError(f"interleave {node.name!r} below the root cannot be compiled")
    action = registry[node.action] if node.action is not None else None
    if isinstance(node, Flow):
        left = _compile_node(node.left, top, registry, automata)
        right = _compile_node(node.right, top, registry, automata)

        def run_flow(label, payload, attrs, states):
            # Left first; the right child's guards see the left child's writes.
            ran_left = left(label, payload, attrs, states)
            if right(label, payload, attrs, states) or ran_left:
                if action is not None:
                    action(payload, attrs)
                return True
            return False
        return run_flow

    index = len(automata)
    automata.append(node)
    table: dict[tuple[str, str], list] = {}
    for tr in node.transitions:
        table.setdefault((tr.source, tr.event), []).append((
            registry[tr.guard] if tr.guard is not None else None,
            registry[tr.action] if tr.action is not None else None,
            tr.target,
        ))
    frozen = {key: tuple(options) for key, options in table.items()}

    def run_automaton(label, payload, attrs, states):
        for guard, transition_action, target in frozen.get((states[index], label), ()):
            if guard is None or guard(payload, attrs):
                if transition_action is not None:
                    transition_action(payload, attrs)
                states[index] = target
                if action is not None:
                    action(payload, attrs)
                return True
        return False
    return run_automaton


def compile(spec: AstdNode, registry: Registry) -> Program:
    """Validate a composition tree as :func:`build` does and compile it.

    The tree must be an interleave without attributes or action of its own,
    over a subtree of flows and automata whose attributes are all declared
    on the subtree's top node. Any other shape raises :class:`BuildError`.
    """
    _validate(spec, registry)
    if not isinstance(spec, Interleave):
        raise BuildError(f"compile needs an interleave at the root, not {spec.name!r}")
    if spec.attributes or spec.action is not None:
        raise BuildError(
            f"interleave {spec.name!r} has attributes or an action, which all keys "
            f"would share; a compiled program keeps state per key only"
        )
    top = spec.child
    automata: list[Automaton] = []
    run = _compile_node(top, top, registry, automata)
    inits = tuple((decl.name, registry[decl.initializer]) for decl in top.attributes)
    return Program(spec.variable, inits, tuple(a.initial for a in automata), run)
