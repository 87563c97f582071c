"""A small algebra of hierarchical state machines: interpreter and compiler.

Three node kinds compose a finite tree:

* ``Automaton``: named states plus guarded, action-carrying transitions.
* ``Flow``: binary node that offers the same event to both children; every
  child that can execute it does, left child first.
* ``Interleave``: quantified node that keeps one isolated child per value
  of a payload variable, created on first sight.

State is kept per key: the *top* is the root interleave's child, or the
root itself when it is not an interleave. The top declares every attribute
(state variable) and creates one flat attribute dict that all nodes below
it read and write. No interleave lies below the root, and an interleave
has no attributes and no action. Any other tree, such as a nested
interleave, attributes on two levels or a shadowed name, raises
``BuildError``. Automata and flows may carry a node action. Within one
event step, actions run bottom-up: a fired transition's action first, then
the node actions of the enclosing nodes along the executed path.

Guards, actions and attribute initializers are plain callables registered
by name and resolved when the tree is built. Guards and actions receive
``(payload, attrs)``; initializers take no arguments. An event that no
path can execute is a no-op and leaves no trace anywhere in the tree.

Two ways run a tree, and both step an event as ``(label, payload)`` and
return whether it executed. ``build`` and ``step`` interpret it: every
step walks the instance tree and resolves each guard and action by name.
The interpreter is the executable specification, and the tests hold the
compiled form to it.

``compile`` accepts the same trees as ``build`` when the root is an
interleave, resolves every guard, action and initializer once, and returns
a ``Program`` whose ``step`` runs those closures in the interpreter's order.
Each key's child is its attribute dict plus the current state of each
automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
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


AstdNode = Union[Automaton, Flow, Interleave]


# --------------------------------------------------------------------------
# Instances
# --------------------------------------------------------------------------

class AutomatonInstance:
    __slots__ = ("node", "scope", "state", "_registry")

    def __init__(self, node: Automaton, registry: Registry, scope: dict[str, Any]):
        self.node = node
        self.scope = scope
        self.state = node.initial
        self._registry = registry

    def _step(self, label: str, payload: Mapping[str, Any]) -> bool:
        registry = self._registry
        for tr in self.node.transitions:
            if tr.source != self.state or tr.event != label:
                continue
            if tr.guard is None or registry[tr.guard](payload, self.scope):
                if tr.action is not None:
                    registry[tr.action](payload, self.scope)
                self.state = tr.target
                _run_node_action(self.node, registry, self.scope, payload)
                return True
        return False


class FlowInstance:
    __slots__ = ("node", "scope", "left", "right", "_registry")

    def __init__(self, node: Flow, registry: Registry, scope: dict[str, Any]):
        self.node = node
        self.scope = scope
        self._registry = registry
        self.left = _instantiate(node.left, registry, scope)
        self.right = _instantiate(node.right, registry, scope)

    def _step(self, label: str, payload: Mapping[str, Any]) -> bool:
        # Left child always goes first; the right child's guards see any
        # attribute writes the left child made during this same step.
        ran_left = self.left._step(label, payload)
        ran_right = self.right._step(label, payload)
        if ran_left or ran_right:
            _run_node_action(self.node, self._registry, self.scope, payload)
            return True
        return False


class InterleaveInstance:
    __slots__ = ("node", "children", "_registry")

    def __init__(self, node: Interleave, registry: Registry):
        self.node = node
        self._registry = registry
        self.children: dict[Any, Any] = {}

    def _step(self, label: str, payload: Mapping[str, Any]) -> bool:
        try:
            value = payload[self.node.variable]
        except KeyError:
            raise DispatchError(
                f"event {label!r} has no {self.node.variable!r} in its payload"
            ) from None
        child = self.children.get(value)
        if child is not None:
            return child._step(label, payload)
        child = _instantiate(self.node.child, self._registry)
        if child._step(label, payload):
            self.children[value] = child
            return True
        return False  # a fresh child that refused the event leaves no trace


AstdInstance = Union[AutomatonInstance, FlowInstance, InterleaveInstance]


def _run_node_action(node: Automaton | Flow, registry: Registry, scope: dict[str, Any],
                     payload: Mapping[str, Any]) -> None:
    if node.action is not None:
        registry[node.action](payload, scope)


# --------------------------------------------------------------------------
# Build and drive
# --------------------------------------------------------------------------

def _check_ref(registry: Registry, name: str, role: str, node: AstdNode) -> None:
    if name not in registry:
        raise BuildError(f"unresolved {role} {name!r} in node {node.name!r}")
    if not callable(registry[name]):
        raise BuildError(f"{role} {name!r} in node {node.name!r} is not callable")


def _validate(node: AstdNode, registry: Registry) -> None:
    if isinstance(node, Interleave):
        if not node.variable:
            raise BuildError(f"interleave {node.name!r} has an empty variable name")
        _validate(node.child, registry)
        return
    if not isinstance(node, (Automaton, Flow)):
        raise BuildError(f"unknown node kind: {node!r}")
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
    else:
        _validate(node.left, registry)
        _validate(node.right, registry)


def _check_shape(spec: AstdNode) -> None:
    """Reject a tree whose per-key state is not one flat attribute dict.

    The per-key top is the root interleave's child, or the root itself.
    Every attribute is declared on the top, and no interleave lies below it.
    """
    top = spec.child if isinstance(spec, Interleave) else spec
    pending = [top]
    while pending:
        node = pending.pop()
        if isinstance(node, Interleave):
            raise BuildError(f"interleave {node.name!r} below the root")
        if node is not top and node.attributes:
            raise BuildError(
                f"node {node.name!r} declares attributes below {top.name!r}: each "
                f"key keeps one flat attribute dict, so every attribute must be "
                f"declared on {top.name!r}"
            )
        if isinstance(node, Flow):
            pending += (node.left, node.right)


def _instantiate(node: AstdNode, registry: Registry, scope: dict[str, Any] | None = None):
    """A fresh instance of ``node``. A per-key top (no ``scope`` given)
    creates the one attribute dict that the nodes below it share."""
    if isinstance(node, Interleave):
        return InterleaveInstance(node, registry)
    if scope is None:
        scope = {decl.name: registry[decl.initializer]() for decl in node.attributes}
    if isinstance(node, Automaton):
        return AutomatonInstance(node, registry, scope)
    return FlowInstance(node, registry, scope)


def build(spec: AstdNode, registry: Registry) -> AstdInstance:
    """Validate a composition tree and return a fresh runnable instance.

    All guard, action and initializer references must resolve in
    ``registry``; the first missing one is reported by name. A tree that
    does not keep one flat attribute dict per key (see the module
    docstring) raises :class:`BuildError`.
    """
    _validate(spec, registry)
    _check_shape(spec)
    return _instantiate(spec, registry)


def step(instance: AstdInstance, label: str, payload: Mapping[str, Any]) -> bool:
    """Deliver one event; return whether it executed."""
    return instance._step(label, payload)


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


def _compile_node(node: AstdNode, registry: Registry, automata: list[Automaton]) -> _Run:
    action = registry[node.action] if node.action is not None else None
    if isinstance(node, Flow):
        left = _compile_node(node.left, registry, automata)
        right = _compile_node(node.right, registry, automata)

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

    The root must also be an interleave; otherwise :class:`BuildError` is
    raised.
    """
    _validate(spec, registry)
    _check_shape(spec)
    if not isinstance(spec, Interleave):
        raise BuildError(f"compile needs an interleave at the root, not {spec.name!r}")
    top = spec.child
    automata: list[Automaton] = []
    run = _compile_node(top, registry, automata)
    inits = tuple((decl.name, registry[decl.initializer]) for decl in top.attributes)
    return Program(spec.variable, inits, tuple(a.initial for a in automata), run)
