"""Integer encoding of components for the search kernels.

States and labels are mapped to dense integer ids with deterministic
(sorted) numbering, so that numeric order coincides with lexicographic
label order. State subsets are bitmask integers.
"""

from __future__ import annotations

from ..machine import Component


class EncodedComponent:
    """A component over an externally supplied label table."""

    __slots__ = (
        "n_states",
        "initial",
        "state_names",
        "state_ids",
        "input_ids",
        "output_ids",
        "trans",
        "step_targets",
    )

    def __init__(self, c: Component, label_ids: dict[str, int]):
        self.state_names: list[str] = sorted(c.states)
        self.state_ids: dict[str, int] = {s: n for n, s in enumerate(self.state_names)}
        self.n_states = len(self.state_names)
        self.initial = self.state_ids[c.initial]
        self.input_ids = frozenset(label_ids[x] for x in c.inputs)
        self.output_ids = frozenset(label_ids[x] for x in c.outputs)

        # trans[s]: sorted tuple of (input, output, target) triples
        per_state: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n_states)]
        for t in c.transitions:
            per_state[self.state_ids[t.source]].append(
                (label_ids[t.input], label_ids[t.output], self.state_ids[t.target])
            )
        self.trans: list[tuple[tuple[int, int, int], ...]] = [
            tuple(sorted(lst)) for lst in per_state
        ]

        # step_targets[s]: {(i, o): bitmask of targets}
        self.step_targets: list[dict[tuple[int, int], int]] = []
        for s in range(self.n_states):
            steps: dict[tuple[int, int], int] = {}
            for (i, o, t) in self.trans[s]:
                steps[(i, o)] = steps.get((i, o), 0) | (1 << t)
            self.step_targets.append(steps)


def label_table(*components: Component) -> tuple[list[str], dict[str, int]]:
    """Shared sorted label table over the alphabets of all given components."""
    labels: set[str] = set()
    for c in components:
        labels |= c.inputs | c.outputs
    names = sorted(labels)
    return names, {x: n for n, x in enumerate(names)}


def encode_pair(c1: Component, c2: Component):
    names, ids = label_table(c1, c2)
    return EncodedComponent(c1, ids), EncodedComponent(c2, ids), names, ids


def bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    n = 0
    while mask:
        if mask & 1:
            yield n
        mask >>= 1
        n += 1
