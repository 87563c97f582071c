"""Runtime semantics: building, guards, action order, isolation, scoping."""

from __future__ import annotations

import pytest

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


def per_key(child):
    return Interleave(name="root", variable="user", child=child)


U1 = {"user": "u1"}


def state_of(automaton, attrs):
    """The control state of one automaton instance in one key's dict."""
    return attrs.get(automaton, automaton.node.initial)


# --------------------------------------------------------------------------
# build
# --------------------------------------------------------------------------

def test_build_initializes_fresh_instance():
    spec = Interleave(name="root", variable="user",
                      child=loop_automaton("child"))
    instance = build(spec, {})
    assert instance.children == {}


def test_build_names_missing_reference():
    spec = per_key(loop_automaton("a", action="foo"))
    with pytest.raises(BuildError, match="foo"):
        build(spec, {})


def test_build_single_state_loop_starts_in_that_state():
    instance = build(per_key(loop_automaton("a")), {})
    assert step(instance, "e", U1) is True
    assert state_of(instance.child, instance.children["u1"]) == "s0"


def test_build_rejects_non_callable_registry_entry():
    spec = per_key(loop_automaton("a", action="act"))
    with pytest.raises(BuildError, match="act"):
        build(spec, {"act": 42})


def test_build_rejects_unknown_states():
    bad = Automaton(name="a", states=("s0",), initial="s1", transitions=())
    with pytest.raises(BuildError, match="s1"):
        build(per_key(bad), {})
    bad = Automaton(name="a", states=("s0",), initial="s0",
                    transitions=(Transition("e", "s0", "nowhere"),))
    with pytest.raises(BuildError, match="nowhere"):
        build(per_key(bad), {})
    # No states: no initial state can be one of them.
    bad = Automaton(name="a", states=(), initial="s0", transitions=())
    with pytest.raises(BuildError, match="initial state 's0' unknown"):
        build(per_key(bad), {})


def test_build_rejects_duplicate_attribute_names():
    spec = loop_automaton("a", attributes=[AttributeDecl("x", "init_zero"),
                                           AttributeDecl("x", "init_zero")])
    with pytest.raises(BuildError, match="duplicate"):
        build(per_key(spec), {"init_zero": lambda: 0})


def test_initializers_may_compute_values():
    spec = loop_automaton("a", attributes=[AttributeDecl("x", "make_x")])
    instance = build(per_key(spec), {"make_x": lambda: 41 + 1})
    step(instance, "e", U1)
    assert instance.children["u1"]["x"] == 42


# --------------------------------------------------------------------------
# step: ordering and the executed flag
# --------------------------------------------------------------------------

def flow_spec():
    registry, log = logging_registry()
    spec = per_key(Flow(
        name="f",
        left=loop_automaton("a", action="a_tr", node_action="a_node"),
        right=loop_automaton("b", action="b_tr", node_action="b_node"),
        attributes=[AttributeDecl("log", "init_log"),
                    AttributeDecl("flag", "init_false")],
        action="flow_node",
    ))
    return spec, registry


def test_flow_runs_children_left_to_right_then_its_own_action():
    spec, registry = flow_spec()
    instance = build(spec, registry)
    assert step(instance, "e", U1) is True
    assert instance.children["u1"]["log"] == ["a_tr", "a_node", "b_tr", "b_node", "flow_node"]


def test_transition_action_runs_before_node_action():
    registry, _ = logging_registry()
    spec = loop_automaton("a", action="a_tr", node_action="a_node",
                          attributes=[AttributeDecl("log", "init_log")])
    instance = build(per_key(spec), registry)
    step(instance, "e", U1)
    assert instance.children["u1"]["log"] == ["a_tr", "a_node"]


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
    instance = build(per_key(spec), registry)
    assert step(instance, "e", U1) is True
    assert instance.children["u1"] == {"log": ["b_tr"], "flag": True}


def test_refused_event_is_a_noop():
    registry, _ = logging_registry()
    spec = loop_automaton("a", guard="flag_set", action="a_tr",
                          node_action="a_node",
                          attributes=[AttributeDecl("log", "init_log"),
                                      AttributeDecl("flag", "init_false")])
    instance = build(per_key(spec), registry)
    attrs = instance.children["u1"] = {"log": [], "flag": False}
    assert step(instance, "e", U1) is False
    assert attrs == {"log": [], "flag": False}  # node action did not run either


def test_wrong_label_is_refused():
    registry, _ = logging_registry()
    spec = loop_automaton("a", action="a_tr",
                          attributes=[AttributeDecl("log", "init_log")])
    instance = build(per_key(spec), registry)
    attrs = instance.children["u1"] = {"log": []}
    assert step(instance, "other", U1) is False
    assert attrs == {"log": []}


def test_first_matching_transition_in_declaration_order_fires():
    registry, _ = logging_registry()
    spec = Automaton(
        name="a", states=("s0", "s1", "s2"), initial="s0",
        transitions=(Transition("e", "s0", "s1", action="a_tr"),
                     Transition("e", "s0", "s2", action="b_tr")),
        attributes=(AttributeDecl("log", "init_log"),),
    )
    instance = build(per_key(spec), registry)
    assert step(instance, "e", U1) is True
    attrs = instance.children["u1"]
    assert state_of(instance.child, attrs) == "s1"
    assert attrs["log"] == ["a_tr"]


ON_OFF = Automaton(name="a", states=("off", "on"), initial="off",
                   transitions=(Transition("e", "off", "on"),))


def test_fired_transition_changes_state():
    instance = build(per_key(ON_OFF), {})
    assert step(instance, "e", U1) is True
    assert state_of(instance.child, instance.children["u1"]) == "on"
    assert step(instance, "e", U1) is False  # no transition leaves "on"
    assert state_of(instance.child, instance.children["u1"]) == "on"


# --------------------------------------------------------------------------
# Interleave semantics
# --------------------------------------------------------------------------

def interleave_spec():
    registry, _ = logging_registry()
    child = loop_automaton("a", action="a_tr",
                           attributes=[AttributeDecl("log", "init_log")])
    return per_key(child), registry


def test_interleave_children_are_isolated():
    spec, registry = interleave_spec()
    instance = build(spec, registry)
    step(instance, "e", {"user": "u1"})
    step(instance, "e", {"user": "u2"})
    step(instance, "e", {"user": "u1"})
    assert instance.children["u1"]["log"] == ["a_tr", "a_tr"]
    assert instance.children["u2"]["log"] == ["a_tr"]


def test_interleave_keeps_control_state_per_key():
    instance = build(per_key(ON_OFF), {})
    assert step(instance, "e", U1) is True
    assert step(instance, "e", {"user": "u2"}) is True  # u2 still starts from "off"
    assert step(instance, "e", U1) is False
    assert [state_of(instance.child, instance.children[u]) for u in ("u1", "u2")] == ["on", "on"]


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
    instance = build(per_key(child), registry)
    assert step(instance, "e", U1) is False
    assert instance.children == {}


def test_interleave_missing_variable_raises_dispatch_error():
    instance = build(per_key(loop_automaton("a")), {})
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
    instance = build(per_key(spec), registry)
    step(instance, "e", U1)
    assert instance.children["u1"]["counter"] == 2


def test_undeclared_attribute_write_adds_it():
    registry, _ = logging_registry()

    def write_ghost(payload, attrs):
        attrs["ghost"] = 1
    registry["write_ghost"] = write_ghost

    instance = build(per_key(loop_automaton("a", action="write_ghost")), registry)
    step(instance, "e", U1)
    assert instance.children["u1"] == {"ghost": 1}


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
        state = {u: attrs["log"] for u, attrs in instance.children.items()}
        return executed, state

    first_executed, first_state = run()
    second_executed, second_state = run()
    assert first_state == second_state
    assert first_executed == second_executed == [True, False] * len(users)


# --------------------------------------------------------------------------
# Tree shape: one flat attribute dict per key
# --------------------------------------------------------------------------

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
def test_build_accepts_only_one_flat_attribute_dict_per_key(spec):
    registry, _ = logging_registry()
    with pytest.raises(BuildError):
        build(spec, registry)
