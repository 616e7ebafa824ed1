"""The demonstration machines, loaded from their files under ``fixtures/``.

The files are the machines' only definition; ``fixtures/README.md``
describes them and ``test_fixtures.py`` asserts the trace facts that
pin them down.
"""

from pathlib import Path

from fsmcheck.compose import Leaf, Par, SystemExpr
from fsmcheck.formats import load_component
from fsmcheck.machine import Component

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def demo(name: str) -> Component:
    """The machine in ``fixtures/<name>.fsm``, e.g. ``demo("coffee/drink")``."""
    return load_component(str(FIXTURES / f"{name}.fsm"))


def coffee_expr(money: Component, drink: Component) -> SystemExpr:
    return Par(Leaf("M", money), Leaf("D", drink))


def relay_expr(left: Component, right: Component) -> SystemExpr:
    return Par(Leaf("A", left), Leaf("B", right))
