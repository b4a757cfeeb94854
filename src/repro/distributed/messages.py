"""Message size accounting for the synchronous model.

The paper's model (Section 1.1) divides time into rounds; per round every
node may send a different message to each neighbor.  Messages carry
``O(log n)``-bit payloads in the paper; our engine does not *enforce* that
bound (the paper's own analysis is purely round-based) but it *measures*
payload volume in "words" -- a word being one integer/float/atom -- so
experiments can report communication volume alongside rounds.

:func:`payload_words` is the single source of truth for both execution
tiers: the scalar engine calls it per dispatched payload, while batch
protocols evaluate it once per message *kind* (or per interned fact) and
multiply by ufunc-reduced message counts, so the two tiers bill
identically by construction.
"""

from __future__ import annotations

from typing import Any

__all__ = ["payload_words"]


def payload_words(payload: Any) -> int:
    """Approximate size of ``payload`` in machine words.

    Atoms (numbers, booleans, short strings, ``None``) count 1; containers
    count the sum of their items plus 1 for their own header.  The measure
    is deliberately simple -- it is a diagnostic, not a protocol
    constraint.
    """
    if payload is None or isinstance(payload, (int, float, bool)):
        return 1
    if isinstance(payload, str):
        return max(1, (len(payload) + 7) // 8)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 1 + sum(payload_words(item) for item in payload)
    if isinstance(payload, dict):
        return 1 + sum(
            payload_words(k) + payload_words(v) for k, v in payload.items()
        )
    return 1
