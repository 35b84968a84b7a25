"""Every value memo of shiftlab, in one list.  The fixtures that start a
run cold empty all of them, and ``tests/test_shift_core.py`` checks that
no ``cache_info`` object of the package is missing from the list.

The intern tables of graphs and codes (``shift_core._GRAPHS``,
``codes._CODES``) are not value memos: they hold their objects weakly and
derive nothing, so a graph or code leaves them once nothing else holds
it, and the cold fixtures need not clear them.  They are the one place
where graphs and codes are compared by value; everywhere else, these
memos included, an equal graph or code is the same object and compares
by identity."""

from shiftlab import shift_core
from shiftlab.chaos import _distal_search, build_scrambled_tuple
from shiftlab.codes import code_image, identity_code
from shiftlab.decomposition import _decompose, _entropy, cyclic_structure, is_irreducible
from shiftlab.inverse_systems import _limit_truncation
from shiftlab.shadow_lab import _limit_gap, _truncation
from shiftlab.shift_core import _first_difference, canonical_presentation, follower

VALUE_MEMOS = (follower, canonical_presentation, _first_difference, _decompose,
               is_irreducible, cyclic_structure, _entropy, identity_code, code_image,
               _distal_search, build_scrambled_tuple, _truncation, _limit_gap,
               _limit_truncation)


def clear_value_memos():
    """Empty every value memo, and the table of graphs whose canonical
    presentation is known without a build."""
    for memo in VALUE_MEMOS:
        memo.cache_clear()
    shift_core._KNOWN_CANONICAL.clear()
