"""Search kernels over integer-encoded components.

``encode`` maps components to dense integer ids and bitmask state
subsets; ``pure`` holds the two searches: the synchronous product
closure, which reads the moves of ``BuildMachine``s and whose
transitions carry the step each side takes, and the subset-pair
conformance search, which also decides trace inclusion and returns the
``CheckStats`` its verdict carries.
"""

from .encode import BuildMachine, EncodedComponent, encode_pair, label_table, slot_offsets
from .pure import CheckStats, cioco_bfs, inclusion_bfs, product_closure

__all__ = [
    "BuildMachine",
    "CheckStats",
    "EncodedComponent",
    "encode_pair",
    "label_table",
    "slot_offsets",
    "product_closure",
    "cioco_bfs",
    "inclusion_bfs",
]
