"""Seeded instance sets for the four benchmark workloads.

Every workload is a list of instances. An instance knows how to build
fresh arguments (untimed), make the one timed call into fsmcheck, and
render the call's result as canonical bytes plus exit codes, which is
what the reference digests cover.

Arguments are rebuilt before every timed call: ``Component.arrows`` and
``Component.outputs_by_input`` are cached per object, and a CLI user
pays for them on every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

WORKLOADS = ("certify_pipeline", "conform_pass", "conform_mutant", "bounded_oracle")

#: Random instances per workload; at least 200 so that the 95th
#: percentile has ten samples beyond it.
N_CERTIFY = 400
N_CONFORM = 400
N_BOUNDED = 1000

#: The "n-th step from the end" family checked in conform_pass.
NTH_FROM_END = range(8, 15)

#: Depth of every bounded_oracle check (criterion 10 goes up to 12,
#: where a single instance can take seconds).
BOUNDED_DEPTH = 7

#: The fixture scenarios of certify_pipeline: (iut1, spec1, iut2, spec2)
#: file names under fixtures/.
FIXTURE_CASES = {
    "coffee": ("coffee/iut_money.fsm", "coffee/spec_money.fsm",
               "coffee/drink.fsm", "coffee/drink.fsm"),
    "coffee_revised": ("coffee/iut_money.fsm", "coffee/spec_money_revised.fsm",
                       "coffee/drink.fsm", "coffee/drink.fsm"),
    "relay": ("relay/iut_left.fsm", "relay/spec_left.fsm",
              "relay/right.fsm", "relay/right.fsm"),
}

EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 3}

MODULES = ("machine", "compose", "conform", "certify", "project", "formats",
           "randgen", "cli")


def load_library(src: Path) -> SimpleNamespace:
    """Import fsmcheck from ``src`` afresh and return its modules.

    Any fsmcheck modules already imported are dropped first, so that
    repeated set-ups each pay for the import.
    """
    for name in [m for m in sys.modules if m == "fsmcheck" or m.startswith("fsmcheck.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = {name: importlib.import_module(f"fsmcheck.{name}") for name in MODULES}
    lib["core"] = importlib.import_module("fsmcheck._core")
    return SimpleNamespace(**lib)


@dataclass
class Output:
    """What one call produced, in the form the reference digests cover."""

    payload: bytes
    exit_codes: tuple[int, ...]
    data: Any = None  # the decoded payload, for the independent checks

    def digest(self) -> str:
        h = hashlib.sha256(self.payload)
        h.update(("\nexit " + " ".join(map(str, self.exit_codes))).encode())
        return h.hexdigest()


@dataclass
class Instance:
    name: str
    kind: str
    fresh: Callable[[], tuple]
    call: Callable[..., Any]
    render: Callable[[Any], Output]
    #: what the independent checks need: source components, fixture name
    facts: dict = field(default_factory=dict)
    #: input files the call reads: path -> text, see ``write_files``
    files: dict = field(default_factory=dict)


def copy_component(lib, c):
    """A new Component equal to ``c`` with empty per-object caches."""
    return lib.machine.Component(
        name=c.name, states=c.states, initial=c.initial,
        inputs=c.inputs, outputs=c.outputs, transitions=c.transitions,
    )


def nth_from_end(lib, n: int):
    """Traces whose n-th step from the end is ``a|x``, plus all their prefixes.

    Every trace over {a|x, a|y} is a trace of this machine, but its
    subset construction has 2^n reachable subsets, so an exact check
    against a one-state loop explores exactly 2^n pairs.
    """
    transitions = [("q0", "a", "x", "q0"), ("q0", "a", "y", "q0"), ("q0", "a", "x", "q1")]
    for k in range(1, n):
        transitions += [(f"q{k}", "a", "x", f"q{k + 1}"), (f"q{k}", "a", "y", f"q{k + 1}")]
    return lib.machine.Component.build(
        f"nth{n}", "q0", transitions, inputs=["a"], outputs=["x", "y"],
        states=[f"q{k}" for k in range(n + 1)],
    )


def one_state_loop(lib):
    return lib.machine.Component.build(
        "loop", "i0", [("i0", "a", "x", "i0"), ("i0", "a", "y", "i0")],
        inputs=["a"], outputs=["x", "y"],
    )


def _verdict_output(verdicts) -> Output:
    data = [v.to_dict() for v in verdicts]
    payload = json.dumps(data, indent=2).encode()
    return Output(payload, tuple(EXIT_CODES[v.result] for v in verdicts), data)


def _cli_output(result) -> Output:
    text, code = result
    try:
        data = json.loads(text)
    except ValueError:
        data = None
    return Output(text.encode(), (code,), data)


def _certify_instance(lib, name, kind, paths, facts) -> Instance:
    argv = ["compositional", "--theorem", "2", "--json", *map(str, paths)]

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
        return out.getvalue(), code

    return Instance(name, kind, lambda: (argv,), call, _cli_output, facts)


def certify_pipeline(lib, seed: int, workdir: Path, fixtures: Path) -> list[Instance]:
    """``fsmcheck compositional --theorem 2 --json`` on component files.

    Each side's implementation is a prune (conforming) or a mutant of its
    specification; the four combinations take turns. The files are
    rendered here and written to ``workdir`` by ``write_files``.
    """
    rng = random.Random(f"certify_pipeline:{seed}")
    randgen, render = lib.randgen, lib.formats.component_to_text
    instances = []
    for k in range(N_CERTIFY):
        (in1, out1), (in2, out2) = randgen.alphabets_for_pair(rng, n_inputs=(3, 3), n_outputs=(2, 2))
        spec1 = randgen.random_component(rng, "L", in1, out1, n_states=(8, 8), density=(0.9, 0.9))
        spec2 = randgen.random_component(rng, "R", in2, out2, n_states=(8, 8), density=(0.9, 0.9))
        iut1 = randgen.prune(rng, spec1) if k % 2 == 0 else randgen.mutate(rng, spec1)
        iut2 = randgen.prune(rng, spec2) if k // 2 % 2 == 0 else randgen.mutate(rng, spec2)
        facts = {"iut1": iut1, "spec1": spec1, "iut2": iut2, "spec2": spec2}
        files = {workdir / f"pair{k:03d}.{role}.fsm": render(c) for role, c in facts.items()}
        instance = _certify_instance(lib, f"pair{k:03d}", "random", list(files), facts)
        instance.files = files
        instances.append(instance)
    for name, files in FIXTURE_CASES.items():
        paths = [fixtures / f for f in files]
        instances.append(_certify_instance(lib, name, "fixture", paths, {"fixture": name}))
    return instances


def _conform_instance(lib, name, kind, iut, spec, facts=None) -> Instance:
    conform = lib.conform

    def call(iut, spec):
        return (conform.check_cioco_exact(iut, spec), conform.check_trace_inclusion(iut, spec))

    return Instance(
        name, kind,
        lambda: (copy_component(lib, iut), copy_component(lib, spec)),
        call, _verdict_output, {"iut": iut, "spec": spec, **(facts or {})},
    )


def _random_specs(lib, rng, n):
    """Specifications of 32 to 64 states, every size equally often.

    Sizes are spread evenly and the density is fixed, rather than drawn,
    so that two seeds differ only in the machines' structure: the number
    of subset pairs a check explores swings most with the density.
    """
    for k in range(n):
        size = 32 + 32 * k // (n - 1)
        spec = lib.randgen.random_component(
            rng, "S", ["a", "b", "c"], ["x", "y"], n_states=(size, size), density=(0.75, 0.75)
        )
        yield k, spec


def conform_pass(lib, seed: int, workdir: Path, fixtures: Path) -> list[Instance]:
    """Exact cioco and trace inclusion of a prune against its specification."""
    rng = random.Random(f"conform_pass:{seed}")
    instances = [
        _conform_instance(lib, f"prune{k:03d}", "prune",
                          lib.randgen.prune(rng, spec, name="I"), spec)
        for k, spec in _random_specs(lib, rng, N_CONFORM)
    ]
    loop = one_state_loop(lib)
    for n in NTH_FROM_END:
        instances.append(_conform_instance(lib, f"nth{n}", "nth", loop, nth_from_end(lib, n),
                                           {"n": n}))
    return instances


def conform_mutant(lib, seed: int, workdir: Path, fixtures: Path) -> list[Instance]:
    """Exact cioco and trace inclusion of a mutant against its specification."""
    rng = random.Random(f"conform_mutant:{seed}")
    return [
        _conform_instance(lib, f"mutant{k:03d}", "mutant",
                          lib.randgen.mutate(rng, spec, name="I"), spec)
        for k, spec in _random_specs(lib, rng, N_CONFORM)
    ]


def bounded_oracle(lib, seed: int, workdir: Path, fixtures: Path) -> list[Instance]:
    """Bounded cioco at a fixed depth on small criterion-10-shaped pairs."""
    rng = random.Random(f"bounded_oracle:{seed}")
    randgen, conform = lib.randgen, lib.conform
    instances = []
    for k in range(N_BOUNDED):
        spec = randgen.random_component(rng, "S", ["a", "b"], ["x", "y"], n_states=(2, 4))
        if k % 2 == 0:
            iut = randgen.prune(rng, spec, keep=rng.uniform(0.4, 0.9), name="I")
        else:
            iut = randgen.mutate(rng, spec, name="I")
        instances.append(Instance(
            f"small{k:04d}", "small",
            lambda iut=iut, spec=spec: (copy_component(lib, iut), copy_component(lib, spec)),
            lambda iut, spec: conform.check_cioco_bounded(iut, spec, BOUNDED_DEPTH),
            lambda v: _verdict_output([v]),
            {"iut": iut, "spec": spec},
        ))
    return instances


GENERATORS = {
    "certify_pipeline": certify_pipeline,
    "conform_pass": conform_pass,
    "conform_mutant": conform_mutant,
    "bounded_oracle": bounded_oracle,
}


def write_files(instances) -> None:
    """Write the input files of the instances.

    Kept out of the timed set-up: on a shared disk the latency of
    writing hundreds of small files swung set-up time by 2x between runs.
    """
    for inst in instances:
        for path, text in inst.files.items():
            path.write_text(text, encoding="utf-8")


def digests(root: Path, workload: str, seed: int, workdir: Path, limit: int | None = None):
    """Digests of the first ``limit`` instances, each run once."""
    lib = load_library(root / "src")
    instances = GENERATORS[workload](lib, seed, workdir, root / "fixtures")[:limit]
    write_files(instances)
    return [inst.render(inst.call(*inst.fresh())).digest() for inst in instances]
