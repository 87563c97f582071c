"""A small algebra of hierarchical state machines and its interpreter.

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

``build`` validates a tree and returns its instance tree, and ``step``
delivers one event as ``(label, payload)`` and returns whether it
executed: every step walks the instances and resolves each guard and
action by name. The interpreter is the executable specification and the
detector's only runtime.
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
                if self.node.action is not None:
                    registry[self.node.action](payload, self.scope)
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
            if self.node.action is not None:
                self._registry[self.node.action](payload, self.scope)
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

    def ensure_child(self, key: Any) -> AstdInstance:
        """Get or create the persistent child bound to ``key``."""
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = _instantiate(self.node.child, self._registry)
        return child


AstdInstance = Union[AutomatonInstance, FlowInstance, InterleaveInstance]


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
