"""Search kernels over machines on integer ids.

``encode`` holds ``EncodedComponent``, the one class of machine on dense
integer ids, with each state's steps as a bitmask row and as moves, and
bitmask state subsets; ``pure`` holds the two searches: the synchronous
product closure, which reads the moves of two machines and whose
transitions carry the step each side takes, and the subset-pair
conformance search, which reads rows, also decides trace inclusion and
returns the ``CheckStats`` its verdict carries.
"""

from .encode import EncodedComponent, encode_pair, label_table, slot_offsets
from .pure import CheckStats, cioco_bfs, inclusion_bfs, product_closure

__all__ = [
    "CheckStats",
    "EncodedComponent",
    "encode_pair",
    "label_table",
    "slot_offsets",
    "product_closure",
    "cioco_bfs",
    "inclusion_bfs",
]
