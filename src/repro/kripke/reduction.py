"""The reduction ``M|_i`` of an indexed structure to a single index (Section 4).

Given an indexed structure ``M`` and an index value ``i ∈ I``, the reduction
``M|_i`` is the same structure with a new labelling that keeps only the
non-indexed propositions and the indexed propositions carrying index ``i``::

    L_i(s) = L(s) ∩ (AP ∪ IP × {i})

Two structures ``M`` and ``M'`` *(i, i′)-correspond* when ``M|_i`` and
``M'|_{i'}`` correspond in the Section 3 sense.  Because the two reductions use
different concrete index values, this module rewrites the surviving indexed
propositions to a canonical sentinel index (``"*"`` by default) so that the
labels of ``M|_i`` and ``M'|_{i'}`` become directly comparable, matching the
paper's identification of ``A_i`` with ``A_{i'}`` in Lemma 4.
"""

from __future__ import annotations

from typing import Union

from repro.errors import StructureError
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp, KripkeStructure

__all__ = ["CANONICAL_INDEX", "reduce_to_index"]

#: Sentinel index used for the surviving indexed propositions of a reduction.
CANONICAL_INDEX = "*"


def reduce_to_index(
    structure: IndexedKripkeStructure,
    index: int,
    canonical_index: Union[int, str, None] = CANONICAL_INDEX,
) -> KripkeStructure:
    """Return the reduction ``M|_index`` as a plain Kripke structure.

    Parameters
    ----------
    structure:
        The indexed structure ``M``.
    index:
        The index value ``i`` to keep; must belong to ``structure.index_values``.
    canonical_index:
        The index value written on the surviving indexed propositions.  The
        default sentinel ``"*"`` makes reductions at different index values
        comparable; pass ``None`` to keep the original index value.

    Returns
    -------
    KripkeStructure
        Same states, transitions and initial state; labels restricted to
        ``AP ∪ IP × {index}``.
    """
    if index not in structure.index_values:
        raise StructureError(
            "index %r is not in the structure's index set %s"
            % (index, sorted(structure.index_values))
        )
    replacement = index if canonical_index is None else canonical_index

    def relabel(_state, label):
        kept = []
        for element in label:
            if isinstance(element, IndexedProp):
                if element.index == index:
                    kept.append(IndexedProp(element.name, replacement))
            else:
                kept.append(element)
        return frozenset(kept)

    return structure.with_labels(relabel, name="%s|%s" % (structure.name or "M", index))
