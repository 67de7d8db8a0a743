"""Group-based RO PUF building blocks (paper §V).

The grouping algorithm (Alg. 2), Kendall/compact coding of intra-group
frequency orders (Table I) and entropy packing.
"""

from repro.grouping.algorithm import (
    GroupingHelper,
    GroupingScheme,
    group_ros,
    grouping_entropy,
    verify_grouping,
)
from repro.grouping.kendall import (
    adjacent_swap_distance,
    compact_bit_count,
    compact_decode,
    compact_encode,
    compact_rank,
    is_valid_kendall,
    kendall_bit_count,
    kendall_decode,
    kendall_encode,
    order_from_frequencies,
    order_from_rank,
    pair_table,
    table1_rows,
)
from repro.grouping.packing import (
    pack_group,
    pack_key,
    pack_key_batch,
    pack_layout,
    packed_length,
    packing_loss_bits,
    split_blocks,
    unpack_group,
)

__all__ = [
    "GroupingHelper",
    "GroupingScheme",
    "group_ros",
    "grouping_entropy",
    "verify_grouping",
    "adjacent_swap_distance",
    "compact_bit_count",
    "compact_decode",
    "compact_encode",
    "compact_rank",
    "is_valid_kendall",
    "kendall_bit_count",
    "kendall_decode",
    "kendall_encode",
    "order_from_frequencies",
    "order_from_rank",
    "pair_table",
    "table1_rows",
    "pack_group",
    "pack_key",
    "pack_key_batch",
    "pack_layout",
    "packed_length",
    "packing_loss_bits",
    "split_blocks",
    "unpack_group",
]
