"""Sparse entity-passage incidence structure and the diffusion operator.

The hypergraph stores the binary incidence matrix H (entities x passages)
once, passage-major: for passage j,
``pas_indices[pas_offsets[j]:pas_offsets[j+1]]`` lists the entity rows of j
in strictly ascending order. H vec scatters each passage's value onto its
rows, and H^T vec gathers the rows' values and sums them per passage.
Because rows ascend inside each passage, H^T adds each passage's terms in
ascending entity order, so its result is bit for bit the one an
entity-major transpose would give. The node and hyperedge degrees, the
entity-major order of the entries (``IncidenceMatrix.entity_major``) and
their slot-major order (``IncidenceMatrix.slot_major``) are derived from
the two arrays on first use and kept with the incidence; none is stored.

The slot-major ("jagged diagonal") order of a set of passages,
``SlotMajorOrder.over``, holds them by descending degree, ties by
ascending column, and slot after slot the entity rows of slot k: the k-th
entry of each passage that has more than k.

The diffusion operator applies the passage-weighted symmetric normalized
propagation matrix

    D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2}

to an entity vector without ever materializing a matrix. Hyperedges with
zero degree use the pseudo-inverse convention 1/0 := 0, so entityless
passages are inert under diffusion.

A query's steps share one ``DiffusionSupport``, and each half-step (H^T u
or H e) takes one of two routes:

- frontier, while the entries of the input's nonzero nodes are under
  ``_FRONTIER_MAX_SHARE`` of H's: only those entries are gathered, as
  entity-major ranges for H^T and passage-major ranges for H, and one
  bincount sums them;
- full, from the first half-step past that share on, over the support's
  passages: H's, or its positive-weight ones when they are at most
  ``_RESTRICT_MAX_KEPT_SHARE`` of all (``DiffusionSupport.entries``). H^T
  gathers u at their slot-major rows, adds slot k's values to the first
  ``widths[k]`` sums as one contiguous vector add, into sums that start at
  +0.0, and scatters the sums back to passage order, +0.0 at the passages
  outside the support; H repeats each passage's value over its
  passage-major entries, and one bincount sums them.

Every route adds the same nonzero terms in the same order: the ranges are
taken in ascending node order, the passage-major entries keep theirs, and
slot k adds the k-th entry of each passage, so a passage's terms still
come in ascending entity order, one add at a time. A route skips only
terms that are +-0.0 and the sums of zero-weight passages, which the next
stage multiplies by their zero weight. Each sum starts at +0.0, and a sum
that starts at +0.0 never becomes -0.0, so adding +-0.0 changes no bit of
it. A step's result does not depend on its routes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .entities import EntitySets
from .errors import ContractError

# Cut-overs timed on the two benchmark graphs (see README "Performance").
_FRONTIER_MAX_SHARE = 0.05
_RESTRICT_MAX_KEPT_SHARE = 0.5


@dataclass
class IncidenceMatrix:
    """Binary incidence matrix in passage-major compressed form.

    ``degrees``, ``entity_major`` and ``slot_major`` are derived from the
    two stored arrays on first use and then kept. ``pas_indices`` is held as
    intp, the index type numpy gathers and counts in, so no propagation step
    converts it; on disk it is int32.
    """

    n_entities: int
    n_passages: int
    pas_offsets: np.ndarray  # int32, len n_passages + 1
    pas_indices: np.ndarray  # intp, len nnz, entity row per entry, ascending per passage

    def __post_init__(self):
        self.pas_indices = np.asarray(self.pas_indices, dtype=np.intp)

    @property
    def nnz(self) -> int:
        return int(self.pas_indices.shape[0])

    @functools.cached_property
    def degrees(self) -> DegreeVectors:
        """Row and column sums of H as integer vectors, and their reciprocals."""
        node_degrees = np.bincount(self.pas_indices, minlength=self.n_entities)
        node_degrees = node_degrees.astype(np.int64)
        edge_degrees = np.diff(self.pas_offsets).astype(np.int64)
        return DegreeVectors(
            node_degrees=node_degrees,
            edge_degrees=edge_degrees,
            inv_sqrt_node=_reciprocal(np.sqrt(node_degrees.astype(np.float64))),
            inv_edge=_reciprocal(edge_degrees.astype(np.float64)),
        )

    @functools.cached_property
    def entity_major(self) -> EntityMajorOrder:
        """H's entries in entity-major order, derived on first use and kept.

        One sort of ``(entity << bits) | passage`` keys gives it, ``bits``
        the width of the largest passage column: int32 keys when they fit,
        else int64. Passages ascend inside each entity, so the order is the
        stable argsort of ``pas_indices``.
        """
        bits = max(self.n_passages - 1, 0).bit_length()
        wide = self.n_entities << bits > np.iinfo(np.int32).max + 1
        key_type = np.int64 if wide else np.int32
        keys = self.pas_indices.astype(key_type)
        keys <<= bits
        keys |= np.repeat(np.arange(self.n_passages, dtype=key_type), np.diff(self.pas_offsets))
        keys.sort()
        keys &= (1 << bits) - 1
        offsets = np.zeros(self.n_entities + 1, dtype=np.intp)
        np.cumsum(self.degrees.node_degrees, out=offsets[1:])
        return EntityMajorOrder(offsets=offsets, columns=keys.astype(np.int32, copy=False))

    @functools.cached_property
    def slot_major(self) -> SlotMajorOrder:
        """H's entries in slot-major order, derived on first use and kept."""
        return SlotMajorOrder.over(self, np.arange(self.n_passages))


@dataclass(frozen=True, eq=False)
class EntityMajorOrder:
    """The entries of H grouped by entity: entity i's entries are
    ``offsets[i]:offsets[i+1]``, and ``columns`` holds their passage
    columns, ascending inside each entity."""

    offsets: np.ndarray  # intp, len n_entities + 1
    columns: np.ndarray  # int32, len nnz


@dataclass(frozen=True, eq=False)
class SlotMajorOrder:
    """The entries of some of H's passages slot by slot ("jagged
    diagonals"; Saad, *Iterative Methods for Sparse Linear Systems*, 2003):
    slot k holds the k-th entry of each of the first ``widths[k]`` of
    ``passages``, which are ordered by descending degree, so ``widths`` does
    not increase. ``rows`` holds the slots' entity rows, slot after slot."""

    passages: np.ndarray  # intp, the passages in slot order
    widths: np.ndarray  # int64, len max degree of the passages
    rows: np.ndarray  # intp, len total degree of the passages

    @classmethod
    def over(cls, incidence: IncidenceMatrix, passages: np.ndarray) -> SlotMajorOrder:
        """The order of the ascending ``passages`` of ``incidence``.

        They are ordered by descending degree, ties by ascending column: a
        stable argsort of ``max_degree - degree``, as uint16 keys while they
        fit, else int64. The rows are taken from ``pas_indices`` a slot at a
        time, with no temporary of their length.
        """
        degrees = incidence.degrees.edge_degrees.take(passages)
        widths = passages.size - np.cumsum(np.bincount(degrees))[:-1]
        max_degree = widths.size
        key_type = np.uint16 if max_degree < 1 << 16 else np.int64
        passages = passages.take(np.argsort((max_degree - degrees).astype(key_type), kind="stable"))
        rows = np.empty(int(widths.sum()), dtype=np.intp)
        at = incidence.pas_offsets.take(passages).astype(np.intp)  # each passage's next entry
        start = 0
        for width in widths.tolist():
            # Each position lies in its passage's entries; mode="raise"
            # would copy through a buffer, about twice the time.
            incidence.pas_indices.take(at[:width], out=rows[start : start + width], mode="clip")
            at[:width] += 1
            start += width
        return cls(passages=passages, widths=widths, rows=rows)

    def passage_sums(self, u: np.ndarray, n_passages: int) -> np.ndarray:
        """H^T u over the order's passages, +0.0 at the other of the
        ``n_passages``: one gather, one vector add per slot, one scatter back
        to passage order. Each passage's terms are added in ascending entity
        order from +0.0, as a bincount over the passage-major entries adds
        them, so the sums are bit for bit the same."""
        values = u.take(self.rows)
        sums = np.zeros(self.passages.shape[0])
        start = 0
        for width in self.widths.tolist():
            sums[:width] += values[start : start + width]
            start += width
        out = np.zeros(n_passages)
        out[self.passages] = sums
        return out


@dataclass(eq=False)
class DegreeVectors:
    """Integer node and hyperedge degrees, with their float reciprocals.

    Reciprocals are computed once to avoid drift between repeated
    applications of the operator.
    """

    node_degrees: np.ndarray  # int64, len n_entities, row sums of H
    edge_degrees: np.ndarray  # int64, len n_passages, column sums of H
    inv_sqrt_node: np.ndarray = field(repr=False)  # float64, 1 / sqrt(node degree)
    inv_edge: np.ndarray = field(repr=False)  # float64, 1 / edge degree


def build_incidence(entity_sets: EntitySets) -> IncidenceMatrix:
    """Build H from per-passage entity sets: a row per name of their catalog,
    a column per passage in the given order, rows ascending in each column."""
    # Passages ascend already; one sort of (passage, row) keys puts the rows
    # of each passage in ascending order.
    n_entities = len(entity_sets.catalog)
    column_bases = entity_sets.columns() * n_entities
    rows = np.sort(column_bases + entity_sets.rows) - column_bases
    return IncidenceMatrix(n_entities, len(entity_sets), entity_sets.offsets.astype(np.int32), rows)


def _reciprocal(values: np.ndarray) -> np.ndarray:
    """1 / values, with 1 / 0 := 0 (entityless passages stay inert)."""
    with np.errstate(divide="ignore"):
        inv = 1.0 / values
    inv[values == 0] = 0.0
    return inv


def _sums(bins: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Per-bin sums of ``values``, each bin added in entry order from +0.0."""
    out = np.bincount(bins, weights=values, minlength=length)
    return out.astype(np.float64, copy=False)  # bincount yields int64 when there are no entries


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] : starts[i] + counts[i]``, concatenated in order."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


@dataclass(frozen=True, eq=False)
class SupportEntries:
    """The passages that a support's full half-steps pass over, ascending,
    with their degrees, their entity rows passage-major, and their
    slot-major order."""

    passages: np.ndarray  # intp
    degrees: np.ndarray  # int64, the passages' degrees
    rows: np.ndarray  # intp, len total degree of the passages
    slots: SlotMajorOrder


class DiffusionSupport:
    """H as one query's diffusion steps see it, under fixed hyperedge weights.

    Its two half-steps take the frontier or the full route described in the
    module docstring; ``edge_scale`` is W D_e^{-1}, computed once.
    """

    def __init__(self, incidence: IncidenceMatrix, edge_weights: np.ndarray):
        if edge_weights.shape != (incidence.n_passages,):
            raise ContractError(
                f"edge_weights has shape {edge_weights.shape}, expected ({incidence.n_passages},)"
            )
        self.incidence, self.edge_weights = incidence, edge_weights
        self.edge_scale = edge_weights * incidence.degrees.inv_edge

    @property
    def full(self) -> bool:
        """Whether a half-step has gone full, so that every later one is."""
        return "entries" in self.__dict__

    @functools.cached_property
    def entries(self) -> SupportEntries:
        """The entries of H, or of H less its zero-weight passages when at
        most ``_RESTRICT_MAX_KEPT_SHARE`` of the passages are kept. The first
        full half-step builds them and makes the support full."""
        inc, degrees = self.incidence, self.incidence.degrees.edge_degrees
        keep = self.edge_weights > 0
        kept = np.flatnonzero(keep)
        if kept.size > _RESTRICT_MAX_KEPT_SHARE * inc.n_passages:
            passages = np.arange(inc.n_passages)
            return SupportEntries(passages, degrees, inc.pas_indices, inc.slot_major)
        rows = inc.pas_indices[np.repeat(keep, degrees)]
        return SupportEntries(kept, degrees[kept], rows, SlotMajorOrder.over(inc, kept))

    def _frontier(
        self, vec: np.ndarray, degrees: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The nonzero positions of ``vec`` and their degrees while a
        frontier half-step over them pays, else None."""
        if not self.full:
            nonzero = np.flatnonzero(vec != 0)  # about 10x faster than on the float64 array
            counts = degrees[nonzero]
            if counts.sum() < _FRONTIER_MAX_SHARE * self.incidence.nnz:
                return nonzero, counts
        return None

    def entity_to_passage(self, u: np.ndarray) -> np.ndarray:
        """H^T u, except that a passage of zero weight may read 0."""
        inc = self.incidence
        frontier = self._frontier(u, inc.degrees.node_degrees)
        if frontier is not None:
            nonzero, counts = frontier
            order = inc.entity_major
            at = _ranges(order.offsets[nonzero], counts)
            return _sums(order.columns[at], np.repeat(u[nonzero], counts), inc.n_passages)
        return self.entries.slots.passage_sums(u, inc.n_passages)

    def passage_to_entity(self, e: np.ndarray) -> np.ndarray:
        """H e, for an ``e`` that is zero on every zero-weight passage, as
        ``e *= edge_scale`` makes it: the restricted support never reads e
        there, while the frontier route and the full one over H do."""
        inc = self.incidence
        frontier = self._frontier(e, inc.degrees.edge_degrees)
        if frontier is not None:
            nonzero, counts = frontier
            at = _ranges(inc.pas_offsets[nonzero], counts)
            return _sums(inc.pas_indices[at], np.repeat(e[nonzero], counts), inc.n_entities)
        entries = self.entries
        values = np.repeat(e.take(entries.passages), entries.degrees)
        return _sums(entries.rows, values, inc.n_entities)


def apply_diffusion_operator(x: np.ndarray, support: DiffusionSupport) -> np.ndarray:
    """One application of D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2} to x, for
    the H and W of ``support``; a query's steps share one support.

    Runs as staged sparse passes: scale, gather to passages, reweight,
    scatter back to entities, scale. The weights are expected in [0, 1]
    (clamped upstream); zero-degree passages contribute nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    inc = support.incidence
    if x.shape != (inc.n_entities,):
        raise ContractError(f"x has shape {x.shape}, expected ({inc.n_entities},)")
    u = x * inc.degrees.inv_sqrt_node
    e = support.entity_to_passage(u)
    e *= support.edge_scale
    y = support.passage_to_entity(e)
    y *= inc.degrees.inv_sqrt_node
    return y


def graph_stats(incidence: IncidenceMatrix) -> dict:
    """Graph-scale statistics of an index, as ``hyperhop stats`` prints them;
    a histogram maps each degree, as a string, to its count."""

    def histogram(deg: np.ndarray) -> dict[str, int]:
        values, counts = np.unique(deg, return_counts=True)
        return {str(v): int(c) for v, c in zip(values, counts)}

    degrees = incidence.degrees
    return {
        "nodes": incidence.n_entities,
        "hyperedges": incidence.n_passages,
        "incidences": incidence.nnz,
        "node_degree_histogram": histogram(degrees.node_degrees),
        "edge_degree_histogram": histogram(degrees.edge_degrees),
        "zero_degree_hyperedges": int(np.count_nonzero(degrees.edge_degrees == 0)),
    }
