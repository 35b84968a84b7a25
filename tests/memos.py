"""Every value memo of shiftlab, in one list.  The fixtures that start a
run cold empty all of them, and ``tests/test_shift_core.py`` checks that
no ``cache_info`` object of the package is missing from the list.

The intern tables of graphs and codes (``shift_core._GRAPHS``,
``codes._CODES``) are not value memos: they hold their objects weakly and
derive nothing, so a graph or code leaves them once nothing else holds
it, and the cold fixtures need not clear them."""

from shiftlab import shift_core
from shiftlab.codes import code_image, identity_code
from shiftlab.decomposition import chain_components, cyclic_structure, entropy
from shiftlab.shift_core import _first_difference, canonical_presentation, follower

VALUE_MEMOS = (follower, canonical_presentation, _first_difference, chain_components,
               cyclic_structure, entropy, identity_code, code_image)


def clear_value_memos():
    """Empty every value memo, and the by-value set of canonical graphs."""
    for memo in VALUE_MEMOS:
        memo.cache_clear()
    shift_core._CANONICAL.clear()
