"""Search kernels over integer-encoded components.

``encode`` maps components to dense integer ids and bitmask state
subsets; ``pure`` holds the two searches: the synchronous product
closure and the subset-pair conformance search, which also decides
trace inclusion.
"""

from .encode import EncodedComponent, bits, encode_pair, label_table, slot_layout, slot_offsets
from .pure import (
    LEFT_FEEDS_RIGHT,
    LEFT_ONLY,
    NO_LABEL,
    RIGHT_FEEDS_LEFT,
    RIGHT_ONLY,
    cioco_bfs,
    inclusion_bfs,
    product_closure,
)

__all__ = [
    "EncodedComponent",
    "bits",
    "encode_pair",
    "label_table",
    "slot_layout",
    "slot_offsets",
    "product_closure",
    "cioco_bfs",
    "inclusion_bfs",
    "LEFT_ONLY",
    "RIGHT_ONLY",
    "LEFT_FEEDS_RIGHT",
    "RIGHT_FEEDS_LEFT",
    "NO_LABEL",
]
