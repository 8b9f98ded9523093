"""orecert: exact word-problem backends, monoid-ring arithmetic, and
certified bounded searches for common right multiples and almost invariant
sets."""

from .groups import (
    FBackend,
    MbBackend,
    PosMonoidBackend,
    ZmBackend,
    alt_trace,
    make_backend,
    pos_normalize,
    verify_trace,
)
from .ore import (
    OreInstance,
    build_relation_graph,
    enumerate_pool,
    extract_cycles,
    make_instance,
    relation_to_solution,
    search_common_multiple,
    search_signed,
    solve,
)
from .semiring import sr_add, sr_as_multiset, sr_mul
from .words import (
    Alphabet,
    Generator,
    Word,
    cyclic_shift,
    is_alternating,
    parse_word,
    print_word,
    shift_word,
)

__version__ = "0.1.0"
