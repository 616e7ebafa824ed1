"""Seeded random generators for components and composable setups.

Used by the property suites; everything is driven by a caller-supplied
``random.Random`` so runs are reproducible from the seed alone.
"""

from __future__ import annotations

import random
from typing import Sequence

from .machine import Component, complete

DEFAULT_DENSITY = (0.3, 0.8)


def random_component(
    rng: random.Random,
    name: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    n_states: tuple[int, int] = (2, 5),
    density: tuple[float, float] = DEFAULT_DENSITY,
) -> Component:
    """A random machine over fixed alphabets.

    ``density`` is the per-(state, input) probability of having any
    transition; enabled slots occasionally get a second output to
    exercise nondeterminism.
    """
    n = rng.randint(*n_states)
    states = [f"{name}s{k}" for k in range(n)]
    d = rng.uniform(*density)
    transitions = []
    for s in states:
        for i in inputs:
            if rng.random() >= d:
                continue
            fanout = 2 if rng.random() < 0.25 else 1
            for _ in range(fanout):
                transitions.append((s, i, rng.choice(list(outputs)), rng.choice(states)))
    return Component.build(
        name,
        initial=states[0],
        transitions=transitions,
        inputs=inputs,
        outputs=outputs,
        states=states,
    )


def alphabets_for_pair(
    rng: random.Random,
    n_inputs: tuple[int, int] = (2, 3),
    n_outputs: tuple[int, int] = (2, 3),
    disjoint: bool = True,
) -> tuple[tuple[list[str], list[str]], tuple[list[str], list[str]]]:
    """Alphabets wired so the pair can synchronize in both directions.

    Some outputs of each side reappear among the other side's inputs.
    With ``disjoint`` the two input sets and the two output sets do not
    overlap (the premise shared by both certification strategies).
    """
    k1 = rng.randint(*n_inputs)
    k2 = rng.randint(*n_inputs)
    m1 = rng.randint(*n_outputs)
    m2 = rng.randint(*n_outputs)
    inputs1 = [f"a{k}" for k in range(k1)]
    inputs2 = [f"b{k}" for k in range(k2)]
    outputs1 = [f"x{k}" for k in range(m1)]
    outputs2 = [f"y{k}" for k in range(m2)]

    # cross-feed one label each way
    outputs1[0] = inputs2[0]
    outputs2[0] = inputs1[0]
    if not disjoint:
        shared = "shared"
        inputs1.append(shared)
        inputs2.append(shared)
    return (inputs1, outputs1), (inputs2, outputs2)


def random_composable_pair(
    rng: random.Random,
    names: tuple[str, str] = ("L", "R"),
    n_states: tuple[int, int] = (2, 5),
    density: tuple[float, float] = DEFAULT_DENSITY,
    disjoint: bool = True,
) -> tuple[Component, Component]:
    (i1, o1), (i2, o2) = alphabets_for_pair(rng, disjoint=disjoint)
    c1 = random_component(rng, names[0], i1, o1, n_states=n_states, density=density)
    c2 = random_component(rng, names[1], i2, o2, n_states=n_states, density=density)
    return c1, c2


def prune(rng: random.Random, c: Component, keep: float = 0.7, name: str | None = None) -> Component:
    """A sub-machine of ``c``: same signature, a random subset of transitions.

    Its traces are a subset of the original's by construction.
    """
    kept = [t for t in c.sorted_transitions() if rng.random() < keep]
    return Component(
        name=name or c.name,
        states=c.states,
        initial=c.initial,
        inputs=c.inputs,
        outputs=c.outputs,
        transitions=frozenset(kept),
    )


def mutate(
    rng: random.Random,
    c: Component,
    keep: float = 0.9,
    adds: int = 2,
    name: str | None = None,
) -> Component:
    """Drop a few transitions and add a few fresh ones over the same signature.

    Produces implementations that diverge from ``c`` at varying depths.
    """
    kept = [(t.source, t.input, t.output, t.target)
            for t in c.sorted_transitions() if rng.random() < keep]
    states = sorted(c.states)
    for _ in range(adds):
        kept.append(
            (
                rng.choice(states),
                rng.choice(sorted(c.inputs)),
                rng.choice(sorted(c.outputs)),
                rng.choice(states),
            )
        )
    return Component.build(
        name or c.name,
        initial=c.initial,
        transitions=kept,
        inputs=c.inputs,
        outputs=c.outputs,
        states=c.states,
    )


def random_input_enabled_spec(
    rng: random.Random,
    name: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    n_states: tuple[int, int] = (2, 5),
    density: tuple[float, float] = DEFAULT_DENSITY,
) -> Component:
    """A random specification completed to input-enabledness.

    The filler output is drawn from the declared outputs so completion
    does not disturb the alphabet wiring of a composable pair.
    """
    base = random_component(rng, name, inputs, outputs, n_states=n_states, density=density)
    policy = rng.choice(("loop", "sink"))
    return complete(base, policy=policy, label=rng.choice(list(outputs)))


def conforming_iut(rng: random.Random, spec: Component) -> Component:
    """An implementation whose traces are included in the specification's."""
    return prune(rng, spec, keep=rng.uniform(0.5, 1.0), name=f"{spec.name}.iut")


__all__ = [
    "alphabets_for_pair",
    "conforming_iut",
    "mutate",
    "prune",
    "random_component",
    "random_composable_pair",
    "random_input_enabled_spec",
]
