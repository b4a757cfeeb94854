"""The MIS runner over derived graphs.

The distributed algorithm needs maximal independent sets of two derived
graphs per phase: the proximity graph of the cluster cover (Section 3.2.1)
and the conflict graph of redundancy elimination (Section 3.2.5).  Both
are growth-bounded UBGs in suitable metrics (Lemmas 15 and 20).  This
module runs a real message-level MIS protocol on the derived adjacency
through the synchronous engine, verifies the output, and reports the
round cost.

:func:`run_luby_mis_arrays` takes CSR arrays and returns a boolean mask
(:class:`MISMask`): a node with no neighbour joins in round 0 without a
message, so only the subgraph induced on the nodes that have one
(:func:`induced_csr`) goes through the engine -- in the distributed
build's proximity graphs, a small fraction of them.  :func:`verify_mis`
checks a chosen set over a mapping adjacency, for the event-tier MIS
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from ..exceptions import ProtocolError
from .engine import SynchronousNetwork, check_csr_topology
from .protocols.luby import LubyMIS

__all__ = [
    "MISMask",
    "induced_csr",
    "run_luby_mis_arrays",
    "verify_mis",
    "verify_mis_arrays",
]


@dataclass(frozen=True)
class MISMask:
    """Result of one protocol-backed MIS computation on CSR arrays.

    Attributes
    ----------
    chosen:
        Read-only ``(n,)`` boolean mask over nodes ``0..n-1``: ``True``
        iff the node is in the MIS.
    engine_rounds:
        Message rounds the protocol used on the derived graph.
    messages:
        Messages the protocol exchanged.
    """

    chosen: np.ndarray
    engine_rounds: int
    messages: int


def induced_csr(
    indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Induce a CSR adjacency on the kept nodes.

    Returns ``(indptr, indices, labels)`` over compact ids ``0..k-1``
    with ``labels[i]`` the original id of compact node ``i``.  Row order
    (ascending) is preserved and labels ascend, so the result is a valid
    labeled engine topology whenever the input was.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    keep = np.asarray(keep, dtype=bool)
    n = indptr.size - 1
    labels = np.flatnonzero(keep).astype(np.int64)
    newid = np.full(n, -1, dtype=np.int64)
    newid[labels] = np.arange(labels.size, dtype=np.int64)
    owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    sel = keep[owners] & keep[indices]
    new_indices = newid[indices[sel]]
    counts = np.bincount(newid[owners[sel]], minlength=labels.size)
    new_indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    return new_indptr, new_indices, labels


def verify_mis(adjacency: Mapping[Hashable, set], chosen: set) -> None:
    """Raise :class:`ProtocolError` unless ``chosen`` is a valid MIS.

    One flattening pass builds the incidence arrays, then independence
    (no adjacency row runs from one chosen node to another) and
    maximality (every unchosen node sees a chosen neighbor) are two
    boolean reductions -- no per-node set copies or intersections, which
    is what makes verification cheap on the ``n = 10^4`` proximity
    graphs of the distributed build.
    """
    if not adjacency:
        return
    chosen = set(chosen)
    nodes = list(adjacency)
    index: dict = {u: i for i, u in enumerate(nodes)}
    # Neighbor values may include nodes that are not adjacency keys.
    for nbrs in adjacency.values():
        for v in nbrs:
            if v not in index:
                index[v] = len(index)
    k = len(nodes)
    total = len(index)
    chosen_mask = np.zeros(total, dtype=bool)
    chosen_mask[[index[u] for u in chosen if u in index]] = True
    deg = np.fromiter(
        (len(nbrs) for nbrs in adjacency.values()), np.int64, k
    )
    flat = np.fromiter(
        (index[v] for nbrs in adjacency.values() for v in nbrs),
        np.int64,
        int(deg.sum()),
    )
    owner = np.repeat(np.arange(k, dtype=np.int64), deg)
    clash = chosen_mask[owner] & chosen_mask[flat]
    if clash.any():
        raise ProtocolError(
            f"MIS not independent at {nodes[int(owner[int(np.argmax(clash))])]}"
        )
    covered = np.bincount(
        owner[chosen_mask[flat]], minlength=k
    ) > 0
    exposed = ~chosen_mask[:k] & ~covered
    # A chosen node outside the key set cannot dominate anyone we track,
    # but scalar semantics let it cover nodes adjacent to it -- handled
    # above because flat indexes every neighbor, key or not.
    if exposed.any():
        raise ProtocolError(
            f"MIS not maximal at {nodes[int(np.argmax(exposed))]}"
        )


def verify_mis_arrays(
    indptr: np.ndarray, indices: np.ndarray, chosen: np.ndarray
) -> None:
    """Raise :class:`ProtocolError` unless ``chosen`` is a valid MIS.

    CSR-native counterpart of :func:`verify_mis`: ``chosen`` is a boolean
    mask over nodes ``0..n-1``.  Independence and maximality are two
    boolean reductions straight over the adjacency arrays -- no dicts,
    no relabeling -- matching the dict-free proximity-graph path of the
    distributed build.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = indptr.size - 1
    if n == 0:
        return
    chosen = np.asarray(chosen, dtype=bool)
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    clash = chosen[owner] & chosen[indices]
    if clash.any():
        raise ProtocolError(
            f"MIS not independent at {int(owner[int(np.argmax(clash))])}"
        )
    covered = np.bincount(owner[chosen[indices]], minlength=n) > 0
    exposed = ~chosen & ~covered
    if exposed.any():
        raise ProtocolError(
            f"MIS not maximal at {int(np.argmax(exposed))}"
        )


def run_luby_mis_arrays(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> MISMask:
    """Compute an MIS of a CSR-array adjacency with the Luby protocol.

    The ``(indptr, indices)`` pair (nodes ``0..n-1``, symmetric,
    ascending loop-free rows -- exactly what
    :meth:`repro.distributed.dist_spanner.DistributedRelaxedGreedy`
    derives for the cover proximity graph) is validated whole, as the
    engine validates a topology.  Every node without a neighbour is
    chosen, as Luby's round 0 chooses it, and the protocol runs only on
    the subgraph induced on the others, under their original ids: its
    priorities and tie-breaks, hence the chosen set, the rounds and the
    messages, are those of a run over all ``n`` nodes, which the
    test-suite pins against a dict-adjacency run and the full-topology
    engine run.  The result is verified on the whole input before it is
    returned, as a read-only mask -- no per-node dict or set of all
    ``n`` nodes is built.
    """
    if max_rounds < 1:
        raise ProtocolError(f"max_rounds must be >= 1, got {max_rounds}")
    _, indptr, indices, _ = check_csr_topology(indptr, indices)
    has_nbr = np.diff(indptr) > 0
    chosen = ~has_nbr
    rounds = messages = 0
    if has_nbr.any():
        sub_indptr, sub_indices, labels = induced_csr(indptr, indices, has_nbr)
        net = SynchronousNetwork(
            (sub_indptr, sub_indices, labels), max_rounds=max_rounds
        )
        result = net.run(LubyMIS(seed=seed))
        # Outputs come in ascending label order, aligned with labels.
        flags = np.fromiter(result.outputs.values(), bool, labels.size)
        chosen[labels[flags]] = True
        rounds, messages = result.rounds, result.messages
    verify_mis_arrays(indptr, indices, chosen)
    chosen.setflags(write=False)
    return MISMask(chosen=chosen, engine_rounds=rounds, messages=messages)
