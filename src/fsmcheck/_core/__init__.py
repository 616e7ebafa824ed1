"""Search kernels over integer-encoded components.

``encode`` maps components to dense integer ids and bitmask state
subsets; ``pure`` holds the two searches: the synchronous product
closure, whose transitions carry the step each side takes, and the
subset-pair conformance search, which also decides trace inclusion
and returns the ``CheckStats`` its verdict carries.
"""

from .encode import EncodedComponent, EncodedLeaf, encode_pair, label_table, slot_offsets
from .pure import CheckStats, cioco_bfs, inclusion_bfs, product_closure

__all__ = [
    "CheckStats",
    "EncodedComponent",
    "EncodedLeaf",
    "encode_pair",
    "label_table",
    "slot_offsets",
    "product_closure",
    "cioco_bfs",
    "inclusion_bfs",
]
