"""Shipped fixture files: valid, lossless in both formats, and the trace
facts of fixtures/README.md hold."""

from fsmcheck import build_system_full, check_cioco_exact, has_trace, out_after, trace
from fsmcheck.formats import (
    component_from_json,
    component_from_text,
    component_to_json,
    component_to_text,
    load_component,
)
from fsmcheck.machine import validate_component

from demos import FIXTURES, coffee_expr, demo, relay_expr


def test_every_file_is_valid_and_round_trips():
    paths = sorted(FIXTURES.glob("**/*.fsm"))
    assert len(paths) == 7
    for path in paths:
        c = load_component(str(path))
        assert validate_component(c).ok, path
        assert component_from_text(component_to_text(c)) == c, path
        assert component_from_json(component_to_json(c)) == c, path


def test_coffee_facts_hold():
    spec = build_system_full(coffee_expr(demo("coffee/spec_money"), demo("coffee/drink"))).component
    iut = build_system_full(coffee_expr(demo("coffee/iut_money"), demo("coffee/drink"))).component
    witness = trace("coinC|preparing abs|coffee coinC|preparing")

    # the composed implementation refunds where the composed specification may not
    assert has_trace(iut, witness + trace("abs|refund"))
    assert has_trace(spec, witness)
    assert "refund" not in out_after(spec, witness, "abs")
    # while each part conforms locally
    assert check_cioco_exact(demo("coffee/iut_money"), demo("coffee/spec_money")).passed
    assert check_cioco_exact(demo("coffee/drink"), demo("coffee/drink")).passed


def test_relay_facts_hold():
    spec = build_system_full(relay_expr(demo("relay/spec_left"), demo("relay/right"))).component
    iut = build_system_full(relay_expr(demo("relay/iut_left"), demo("relay/right"))).component

    assert has_trace(iut, trace("i1|o3 i2|o5"))
    assert has_trace(spec, trace("i1|o3"))
    assert "o5" not in out_after(spec, trace("i1|o3"), "i2")
    assert check_cioco_exact(demo("relay/iut_left"), demo("relay/spec_left")).passed
    assert check_cioco_exact(demo("relay/right"), demo("relay/right")).passed
