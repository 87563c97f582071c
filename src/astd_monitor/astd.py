"""A small algebra of hierarchical state machines and its interpreter.

Three node kinds compose a finite tree:

* ``Automaton``: named states plus guarded, action-carrying transitions.
* ``Flow``: binary node that offers the same event to both children; every
  child that can execute it does, left child first.
* ``Interleave``: quantified node that keeps one isolated child state per
  value of a payload variable, created on first sight.

The root is an interleave, and each key's state is one flat dict: the
attributes (state variables) that the root's child declares, plus the
control state of any automaton that has left its initial state, keyed by
its instance. No interleave lies below the root and no node below its
child declares attributes; any other tree raises ``BuildError``. Automata
and flows may carry a node action. Within one event step, actions run
bottom-up: a fired transition's action first, then the node actions of
the enclosing nodes along the executed path.

Guards, actions and attribute initializers are plain callables registered
by name and resolved when the tree is built. Guards and actions receive
``(payload, attrs)``; initializers take no arguments. An event that no
path can execute is a no-op and leaves no trace anywhere in the tree.

``build`` validates a tree and returns its one instance tree, and ``step``
delivers one event as ``(label, payload)`` and returns whether it
executed: the root picks the key's dict and the nodes below pass it down,
resolving each guard and action by name. The interpreter is the
executable specification and the detector's only runtime.
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
# Instances: one tree per build; each key's state is the dict passed down
# --------------------------------------------------------------------------

class AutomatonInstance:
    __slots__ = ("node", "_registry")

    def __init__(self, node: Automaton, registry: Registry):
        self.node = node
        self._registry = registry

    def _step(self, label: str, payload: Mapping[str, Any], scope: dict) -> bool:
        registry = self._registry
        node = self.node
        state = scope.get(self, node.initial)
        for tr in node.transitions:
            if tr.source != state or tr.event != label:
                continue
            if tr.guard is None or registry[tr.guard](payload, scope):
                if tr.action is not None:
                    registry[tr.action](payload, scope)
                if tr.target != state:  # a self-loop leaves the dict as it is
                    scope[self] = tr.target
                if node.action is not None:
                    registry[node.action](payload, scope)
                return True
        return False


class FlowInstance:
    __slots__ = ("node", "left", "right", "_registry")

    def __init__(self, node: Flow, registry: Registry):
        self.node = node
        self._registry = registry
        self.left = _instantiate(node.left, registry)
        self.right = _instantiate(node.right, registry)

    def _step(self, label: str, payload: Mapping[str, Any], scope: dict) -> bool:
        # Left child always goes first; the right child's guards see any
        # attribute writes the left child made during this same step.
        ran_left = self.left._step(label, payload, scope)
        ran_right = self.right._step(label, payload, scope)
        if ran_left or ran_right:
            if self.node.action is not None:
                self._registry[self.node.action](payload, scope)
            return True
        return False


class InterleaveInstance:
    __slots__ = ("node", "child", "children", "_registry")

    def __init__(self, node: Interleave, registry: Registry):
        self.node = node
        self._registry = registry
        self.child = _instantiate(node.child, registry)
        self.children: dict[Any, dict] = {}

    def _fresh_scope(self) -> dict:
        registry = self._registry
        return {decl.name: registry[decl.initializer]() for decl in self.node.child.attributes}

    def _step(self, label: str, payload: Mapping[str, Any]) -> bool:
        try:
            value = payload[self.node.variable]
        except KeyError:
            raise DispatchError(
                f"event {label!r} has no {self.node.variable!r} in its payload"
            ) from None
        scope = self.children.get(value)
        if scope is not None:
            return self.child._step(label, payload, scope)
        scope = self._fresh_scope()
        if self.child._step(label, payload, scope):
            self.children[value] = scope
            return True
        return False  # a fresh key that refused the event leaves no trace

    def ensure_child(self, key: Any) -> dict:
        """Get or create the persistent state dict of ``key``."""
        scope = self.children.get(key)
        if scope is None:
            scope = self.children[key] = self._fresh_scope()
        return scope


# --------------------------------------------------------------------------
# Build and drive
# --------------------------------------------------------------------------

def _check_ref(registry: Registry, name: str, role: str, node: AstdNode) -> None:
    if name not in registry:
        raise BuildError(f"unresolved {role} {name!r} in node {node.name!r}")
    if not callable(registry[name]):
        raise BuildError(f"{role} {name!r} in node {node.name!r} is not callable")


def _validate(node: AstdNode, registry: Registry, top: AstdNode) -> None:
    """Check one node below the root, where ``top`` is the root's child: the
    only node that declares attributes, as each key keeps one flat dict."""
    if isinstance(node, Interleave):
        raise BuildError(f"interleave {node.name!r} below the root")
    if not isinstance(node, (Automaton, Flow)):
        raise BuildError(f"unknown node kind: {node!r}")
    if node is not top and node.attributes:
        raise BuildError(
            f"node {node.name!r} declares attributes below {top.name!r}: each "
            f"key keeps one flat attribute dict, so every attribute must be "
            f"declared on {top.name!r}"
        )
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
        _validate(node.left, registry, top)
        _validate(node.right, registry, top)


def _instantiate(node: Automaton | Flow, registry: Registry) -> AutomatonInstance | FlowInstance:
    if isinstance(node, Automaton):
        return AutomatonInstance(node, registry)
    return FlowInstance(node, registry)


def build(spec: AstdNode, registry: Registry) -> InterleaveInstance:
    """Validate a composition tree and return its instance tree, with no key yet.

    All guard, action and initializer references must resolve in
    ``registry``; the first missing one is reported by name. A tree that
    does not keep one flat attribute dict per key (see the module
    docstring) raises :class:`BuildError`.
    """
    if not isinstance(spec, Interleave):
        raise BuildError(f"root {getattr(spec, 'name', spec)!r} is not an interleave: "
                         f"state is kept per key")
    if not spec.variable:
        raise BuildError(f"interleave {spec.name!r} has an empty variable name")
    _validate(spec.child, registry, spec.child)
    return InterleaveInstance(spec, registry)


def step(instance: InterleaveInstance, label: str, payload: Mapping[str, Any]) -> bool:
    """Deliver one event; return whether it executed."""
    return instance._step(label, payload)
