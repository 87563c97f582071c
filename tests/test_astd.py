"""Runtime semantics: building, guards, action order, isolation, scoping;
and the compiled form against the interpreter."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from astd_monitor import astd
from astd_monitor.astd import (
    AttributeDecl,
    Automaton,
    BuildError,
    DispatchError,
    Flow,
    Interleave,
    Transition,
    build,
    step,
)


def loop_automaton(name, *, guard=None, action=None, node_action=None,
                   attributes=()):
    return Automaton(
        name=name,
        states=("s0",),
        initial="s0",
        transitions=(Transition(event="e", source="s0", target="s0",
                                guard=guard, action=action),),
        attributes=tuple(attributes),
        action=node_action,
    )


def logging_registry():
    """Actions that append their own name to a shared 'log' attribute."""
    log = []

    def recorder(name):
        def run(payload, attrs):
            attrs["log"] = attrs["log"] + [name]
        return run

    registry = {
        "init_log": list,
        "init_zero": lambda: 0,
        "init_false": lambda: False,
        "flag_set": lambda payload, attrs: bool(attrs.get("flag", False)),
    }
    for name in ("a_tr", "a_node", "b_tr", "b_node", "flow_node"):
        registry[name] = recorder(name)
    return registry, log


# --------------------------------------------------------------------------
# build
# --------------------------------------------------------------------------

def test_build_initializes_fresh_instance():
    spec = Interleave(name="root", variable="user",
                      child=loop_automaton("child"))
    instance = build(spec, {})
    assert instance.children == {}


def test_build_names_missing_reference():
    spec = loop_automaton("a", action="foo")
    with pytest.raises(BuildError, match="foo"):
        build(spec, {})


def test_build_single_state_loop_starts_in_that_state():
    instance = build(loop_automaton("a"), {})
    assert instance.state == "s0"


def test_build_rejects_non_callable_registry_entry():
    spec = loop_automaton("a", action="act")
    with pytest.raises(BuildError, match="act"):
        build(spec, {"act": 42})


def test_build_rejects_unknown_states():
    bad = Automaton(name="a", states=("s0",), initial="s1", transitions=())
    with pytest.raises(BuildError, match="s1"):
        build(bad, {})
    bad = Automaton(name="a", states=("s0",), initial="s0",
                    transitions=(Transition("e", "s0", "nowhere"),))
    with pytest.raises(BuildError, match="nowhere"):
        build(bad, {})


def test_build_rejects_duplicate_attribute_names():
    spec = loop_automaton("a", attributes=[AttributeDecl("x", "init_zero"),
                                           AttributeDecl("x", "init_zero")])
    with pytest.raises(BuildError, match="duplicate"):
        build(spec, {"init_zero": lambda: 0})


def test_initializers_may_compute_values():
    spec = loop_automaton("a", attributes=[AttributeDecl("x", "make_x")])
    instance = build(spec, {"make_x": lambda: 41 + 1})
    assert instance.scope["x"] == 42


# --------------------------------------------------------------------------
# step: ordering and the executed flag
# --------------------------------------------------------------------------

def flow_spec():
    registry, log = logging_registry()
    spec = Flow(
        name="f",
        left=loop_automaton("a", action="a_tr", node_action="a_node"),
        right=loop_automaton("b", action="b_tr", node_action="b_node"),
        attributes=[AttributeDecl("log", "init_log"),
                    AttributeDecl("flag", "init_false")],
        action="flow_node",
    )
    return spec, registry


def test_flow_runs_children_left_to_right_then_its_own_action():
    spec, registry = flow_spec()
    instance = build(spec, registry)
    assert step(instance, "e", {}) is True
    assert instance.scope["log"] == ["a_tr", "a_node", "b_tr", "b_node", "flow_node"]


def test_transition_action_runs_before_node_action():
    registry, _ = logging_registry()
    spec = loop_automaton("a", action="a_tr", node_action="a_node",
                          attributes=[AttributeDecl("log", "init_log")])
    instance = build(spec, registry)
    step(instance, "e", {})
    assert instance.scope["log"] == ["a_tr", "a_node"]


def test_left_childs_writes_are_visible_to_right_childs_guard():
    registry, _ = logging_registry()

    def raise_flag(payload, attrs):
        attrs["flag"] = True
    registry["raise_flag"] = raise_flag

    spec = Flow(
        name="f",
        left=loop_automaton("a", action="raise_flag"),
        right=loop_automaton("b", guard="flag_set", action="b_tr"),
        attributes=[AttributeDecl("log", "init_log"),
                    AttributeDecl("flag", "init_false")],
    )
    instance = build(spec, registry)
    assert step(instance, "e", {}) is True
    assert instance.scope == {"log": ["b_tr"], "flag": True}


def test_refused_event_is_a_noop():
    registry, _ = logging_registry()
    spec = loop_automaton("a", guard="flag_set", action="a_tr",
                          node_action="a_node",
                          attributes=[AttributeDecl("log", "init_log"),
                                      AttributeDecl("flag", "init_false")])
    instance = build(spec, registry)
    assert step(instance, "e", {}) is False
    assert instance.scope == {"log": [], "flag": False}  # node action did not run either


def test_wrong_label_is_refused():
    registry, _ = logging_registry()
    spec = loop_automaton("a", action="a_tr",
                          attributes=[AttributeDecl("log", "init_log")])
    instance = build(spec, registry)
    assert step(instance, "other", {}) is False
    assert instance.scope["log"] == []


def test_first_matching_transition_in_declaration_order_fires():
    registry, _ = logging_registry()
    spec = Automaton(
        name="a", states=("s0", "s1", "s2"), initial="s0",
        transitions=(Transition("e", "s0", "s1", action="a_tr"),
                     Transition("e", "s0", "s2", action="b_tr")),
        attributes=(AttributeDecl("log", "init_log"),),
    )
    instance = build(spec, registry)
    assert step(instance, "e", {}) is True
    assert instance.state == "s1"
    assert instance.scope["log"] == ["a_tr"]


def test_fired_transition_changes_state():
    spec = Automaton(name="a", states=("off", "on"), initial="off",
                     transitions=(Transition("e", "off", "on"),))
    instance = build(spec, {})
    assert step(instance, "e", {}) is True
    assert instance.state == "on"
    assert step(instance, "e", {}) is False  # no transition leaves "on"
    assert instance.state == "on"


# --------------------------------------------------------------------------
# Interleave semantics
# --------------------------------------------------------------------------

def interleave_spec():
    registry, _ = logging_registry()
    child = loop_automaton("a", action="a_tr",
                           attributes=[AttributeDecl("log", "init_log")])
    return Interleave(name="root", variable="user", child=child), registry


def test_interleave_children_are_isolated():
    spec, registry = interleave_spec()
    instance = build(spec, registry)
    step(instance, "e", {"user": "u1"})
    step(instance, "e", {"user": "u2"})
    step(instance, "e", {"user": "u1"})
    assert instance.children["u1"].scope["log"] == ["a_tr", "a_tr"]
    assert instance.children["u2"].scope["log"] == ["a_tr"]


def test_interleave_children_created_lazily_on_first_sight():
    spec, registry = interleave_spec()
    instance = build(spec, registry)
    assert instance.children == {}
    step(instance, "e", {"user": "u1"})
    assert set(instance.children) == {"u1"}


def test_interleave_refusing_fresh_child_leaves_no_trace():
    registry, _ = logging_registry()
    child = loop_automaton("a", guard="flag_set", action="a_tr",
                           attributes=[AttributeDecl("log", "init_log"),
                                       AttributeDecl("flag", "init_false")])
    instance = build(Interleave(name="root", variable="user", child=child),
                     registry)
    assert step(instance, "e", {"user": "u1"}) is False
    assert instance.children == {}


def test_interleave_missing_variable_raises_dispatch_error():
    spec = Interleave(name="root", variable="user", child=loop_automaton("a"))
    instance = build(spec, {})
    with pytest.raises(DispatchError):
        step(instance, "e", {"other": 1})


# --------------------------------------------------------------------------
# Attribute scoping
# --------------------------------------------------------------------------

def test_child_reads_and_writes_ancestor_attribute():
    registry, _ = logging_registry()

    def bump(payload, attrs):
        attrs["counter"] = attrs["counter"] + 1
    registry["bump"] = bump

    spec = Flow(name="f",
                left=loop_automaton("a", action="bump"),
                right=loop_automaton("b", action="bump"),
                attributes=[AttributeDecl("counter", "init_zero")])
    instance = build(spec, registry)
    step(instance, "e", {})
    assert instance.scope["counter"] == 2


def test_undeclared_attribute_write_adds_it_in_both_runtimes():
    registry, _ = logging_registry()

    def write_ghost(payload, attrs):
        attrs["ghost"] = 1
    registry["write_ghost"] = write_ghost

    spec = per_key(loop_automaton("a", action="write_ghost"))
    instance = build(spec, registry)
    step(instance, "e", {"user": "u1"})
    program = astd.compile(spec, registry)
    program.step("e", {"user": "u1"})
    assert instance.children["u1"].scope == program.children["u1"].attrs == {"ghost": 1}


# --------------------------------------------------------------------------
# Replay determinism
# --------------------------------------------------------------------------

def test_same_sequence_yields_identical_results_and_state():
    users = ("u1", "u2", "u1", "u3", "u2", "u1")
    labels = ("e", "other")

    def run():
        spec, registry = interleave_spec()
        instance = build(spec, registry)
        executed = [step(instance, label, {"user": u}) for u in users for label in labels]
        state = {u: child.scope["log"] for u, child in instance.children.items()}
        return executed, state

    first_executed, first_state = run()
    second_executed, second_state = run()
    assert first_state == second_state
    assert first_executed == second_executed == [True, False] * len(users)


# --------------------------------------------------------------------------
# Compiled form
# --------------------------------------------------------------------------

def per_key(child):
    return Interleave(name="root", variable="user", child=child)


def test_compiled_flow_runs_children_left_to_right_then_its_own_action():
    spec, registry = flow_spec()
    program = astd.compile(per_key(spec), registry)
    assert program.step("e", {"user": "u1"}) is True
    assert program.children["u1"].attrs["log"] == \
        ["a_tr", "a_node", "b_tr", "b_node", "flow_node"]


def test_compiled_left_childs_writes_are_visible_to_right_childs_guard():
    registry, _ = logging_registry()

    def raise_flag(payload, attrs):
        attrs["flag"] = True
    registry["raise_flag"] = raise_flag

    spec = Flow(
        name="f",
        left=loop_automaton("a", action="raise_flag"),
        right=loop_automaton("b", guard="flag_set", action="b_tr"),
        attributes=[AttributeDecl("log", "init_log"),
                    AttributeDecl("flag", "init_false")],
    )
    program = astd.compile(per_key(spec), registry)
    program.step("e", {"user": "u1"})
    assert program.children["u1"].attrs == {"log": ["b_tr"], "flag": True}


def test_compiled_refusal_leaves_no_trace():
    registry, _ = logging_registry()
    child = loop_automaton("a", guard="flag_set", action="a_tr",
                           node_action="a_node",
                           attributes=[AttributeDecl("log", "init_log"),
                                       AttributeDecl("flag", "init_false")])
    program = astd.compile(per_key(child), registry)
    assert program.step("e", {"user": "u1"}) is False
    assert program.children == {}  # the fresh child was discarded
    program.ensure_child("u1")
    assert program.step("e", {"user": "u1"}) is False
    assert program.step("other", {"user": "u1"}) is False
    assert program.children["u1"].attrs == {"log": [], "flag": False}


def test_compiled_first_matching_transition_fires_and_moves_state():
    registry, _ = logging_registry()
    spec = Automaton(
        name="a", states=("s0", "s1", "s2"), initial="s0",
        transitions=(Transition("e", "s0", "s1", action="a_tr"),
                     Transition("e", "s0", "s2", action="b_tr"),
                     Transition("e", "s1", "s0", action="b_tr")),
        attributes=(AttributeDecl("log", "init_log"),),
    )
    program = astd.compile(per_key(spec), registry)
    program.step("e", {"user": "u1"})
    assert program.children["u1"].states == ["s1"]
    program.step("e", {"user": "u1"})
    assert program.children["u1"].states == ["s0"]
    assert program.children["u1"].attrs["log"] == ["a_tr", "b_tr"]


def test_compiled_children_are_isolated_and_created_lazily():
    spec, registry = interleave_spec()
    program = astd.compile(spec, registry)
    assert program.children == {}
    for user in ("u1", "u2", "u1"):
        program.step("e", {"user": user})
    assert program.children["u1"].attrs["log"] == ["a_tr", "a_tr"]
    assert program.children["u2"].attrs["log"] == ["a_tr"]


def test_compiled_missing_variable_raises_dispatch_error():
    program = astd.compile(per_key(loop_automaton("a")), {})
    with pytest.raises(DispatchError):
        program.step("e", {"other": 1})


def test_compile_validates_like_build():
    with pytest.raises(BuildError, match="foo"):
        astd.compile(per_key(loop_automaton("a", action="foo")), {})
    bad = Automaton(name="a", states=("s0",), initial="s1", transitions=())
    with pytest.raises(BuildError, match="s1"):
        astd.compile(per_key(bad), {})


ZERO = (AttributeDecl("counter", "init_zero"),)


@pytest.mark.parametrize("spec", [
    pytest.param(loop_automaton("a"), id="no-interleave-root"),
    pytest.param(per_key(Flow("f", loop_automaton("a", attributes=ZERO),
                              loop_automaton("b"), attributes=ZERO)),
                 id="shadowed-name"),
    pytest.param(per_key(Flow("f", loop_automaton("a", attributes=ZERO),
                              loop_automaton("b"),
                              attributes=(AttributeDecl("log", "init_log"),))),
                 id="attributes-on-two-levels"),
    pytest.param(per_key(Flow("f", loop_automaton("a", attributes=ZERO),
                              loop_automaton("b"))),
                 id="attributes-below-the-top"),
    pytest.param(per_key(Flow("f", loop_automaton("a"),
                              Interleave("inner", "item", loop_automaton("b")))),
                 id="nested-interleave"),
])
def test_compile_rejects_trees_it_cannot_flatten(spec):
    registry, _ = logging_registry()
    if isinstance(spec, Interleave):  # build rejects every shape compile does
        with pytest.raises(BuildError):
            build(spec, registry)
    else:  # except a non-interleave root, which only compile needs
        build(spec, registry)
    with pytest.raises(BuildError):
        astd.compile(spec, registry)


def toggle_flag(payload, attrs):
    attrs["flag"] = not attrs["flag"]


def test_compiled_program_matches_the_interpreter():
    registry, _ = logging_registry()
    registry["toggle_flag"] = toggle_flag

    left = Automaton(
        name="a", states=("s0", "s1"), initial="s0",
        transitions=(Transition("e", "s0", "s1", action="a_tr"),
                     Transition("e", "s1", "s0", guard="flag_set", action="toggle_flag"),
                     Transition("f", "s1", "s1", action="toggle_flag")),
        action="a_node",
    )
    right = Automaton(
        name="b", states=("s0",), initial="s0",
        transitions=(Transition("f", "s0", "s0", guard="flag_set", action="b_tr"),),
        action="b_node",
    )
    spec = per_key(Flow("f", left, right, action="flow_node",
                        attributes=(AttributeDecl("log", "init_log"),
                                    AttributeDecl("flag", "init_false"))))
    interpreted = build(spec, registry)
    program = astd.compile(spec, registry)
    rng = random.Random(5)
    for _ in range(400):
        label, user = rng.choice("ef"), rng.choice(["u1", "u2", "u3"])
        assert step(interpreted, label, {"user": user}) is program.step(label, {"user": user})
        assert program.children.keys() == interpreted.children.keys()
        for key, child in interpreted.children.items():
            compiled = program.children[key]
            assert compiled.attrs == child.scope
            assert compiled.states == [child.left.state, child.right.state]


GUARDS = st.sampled_from([None, "flag_set", "flag_clear"])
ACTIONS = st.sampled_from([None, "a_tr", "a_node", "b_tr", "b_node", "flow_node",
                           "toggle_flag"])


@st.composite
def automata(draw):
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 3))))
    state = st.sampled_from(states)
    transitions = draw(st.lists(
        st.builds(Transition, st.sampled_from("ef"), state, state, GUARDS, ACTIONS),
        max_size=6))
    return Automaton("a", states, draw(state), tuple(transitions), action=draw(ACTIONS))


def flows(depth):
    """Flows nested up to ``depth`` deep over automata."""
    if depth == 0:
        return automata()
    return st.one_of(automata(), st.builds(
        lambda left, right, action: Flow("f", left, right, action=action),
        flows(depth - 1), flows(depth - 1), ACTIONS))


def automaton_states(instance):
    """The interpreter's automaton states in pre-order, as a compiled child
    keeps them."""
    if isinstance(instance, astd.FlowInstance):
        return automaton_states(instance.left) + automaton_states(instance.right)
    return [instance.state]


@settings(deadline=None, max_examples=150)
@given(flows(3), st.integers(1, 3).flatmap(lambda users: st.lists(
    st.tuples(st.sampled_from("ef"), st.sampled_from([f"u{i}" for i in range(users)])),
    max_size=200)))
def test_compiled_program_matches_the_interpreter_on_random_trees(top, events):
    registry, _ = logging_registry()
    registry["flag_clear"] = lambda payload, attrs: not attrs["flag"]
    registry["toggle_flag"] = toggle_flag
    spec = per_key(dataclasses.replace(
        top, attributes=(AttributeDecl("log", "init_log"),
                         AttributeDecl("flag", "init_false"))))
    interpreted = build(spec, registry)
    program = astd.compile(spec, registry)
    for label, user in events:
        assert step(interpreted, label, {"user": user}) is program.step(label, {"user": user})
        assert list(program.children) == list(interpreted.children)
        for key, child in interpreted.children.items():
            compiled = program.children[key]
            assert compiled.attrs == child.scope
            assert compiled.states == automaton_states(child)
