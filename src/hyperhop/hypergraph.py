"""Sparse entity-passage incidence structure and the diffusion operator.

The hypergraph stores the binary incidence matrix H (entities x passages)
once, passage-major: for passage j,
``pas_indices[pas_offsets[j]:pas_offsets[j+1]]`` lists the entity rows of j
in strictly ascending order. H vec scatters each passage's value onto its
rows, and H^T vec gathers the rows' values and sums them per passage.
Because rows ascend inside each passage, H^T adds each passage's terms in
ascending entity order, so its result is bit for bit the one an
entity-major transpose would give. Node and hyperedge degrees are derived
from the two arrays on first use and kept with the incidence
(``IncidenceMatrix.degrees``); they are never stored.

The entity-major order of the same entries, ``IncidenceMatrix.entity_major``,
is derived in memory the first time a diffusion needs it and kept with the
incidence; nothing of it goes to disk. It is one sort of int32 keys: 6-9
ms and 2.4 MB on the 600k entries of the passage-heavy benchmark graph,
1-1.4 ms on the 80k of the multihop one (numpy 2.4, whose sort uses AVX-512
there, on one core of a 2-vCPU Xeon).

The slot-major ("jagged diagonal"; Saad, *Iterative Methods for Sparse
Linear Systems*, SIAM 2003) order, ``IncidenceMatrix.slot_major``, is
derived and kept the same way. It holds the passages by descending degree,
ties by ascending column, and slot after slot the entity rows of slot k:
the k-th entry of each passage that has more than k. Deriving it takes
about 3 ms on the passage-heavy graph, whose passages hold 12-14 entries
(so 14 slots), and 0.3 ms on the multihop one; its rows take 8 bytes an
entry, 4.8 MB on passage-heavy.

The diffusion operator applies the passage-weighted symmetric normalized
propagation matrix

    D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2}

to an entity vector without ever materializing a matrix. Hyperedges with
zero degree use the pseudo-inverse convention 1/0 := 0, so entityless
passages are inert under diffusion.

A query's steps share one ``DiffusionSupport``, and each half-step (H^T u
or H e) takes one of three routes:

- frontier: only the entries of the input's nonzero nodes are gathered, as
  entity-major ranges for H^T and passage-major ranges for H, and one
  bincount sums them;
- full over the restricted support, H less its zero-weight passages, when
  they are at least half of all; the first full half-step builds it. One
  bincount sums every entry of it, read in storage order. H^T takes the
  entries' rows of u; H repeats each kept passage's value over its
  entries, which is the gather at their columns done as one sequential
  pass;
- full over H itself: H^T gathers u at the slot-major rows, adds slot k's
  values to the first ``widths[k]`` sums as one contiguous vector add,
  into sums that start at +0.0, and scatters the sums back to passage
  order; H repeats each passage's value over its entries, and one bincount
  sums them.

Every route adds the same nonzero terms in the same order: the ranges are
taken in ascending node order, the kept entries keep theirs, and slot k
adds the k-th entry of each passage, so a passage's terms still come in
ascending entity order, one add at a time. A route skips only terms that
are +-0.0 and the sums of zero-weight passages, which the next stage
multiplies by their zero weight. Each sum starts at +0.0, and a sum that
starts at +0.0 never becomes -0.0, so adding +-0.0 changes no bit of it. A
step's result does not depend on its routes.

Costs per million entries, on one core of a 2-vCPU Xeon (numpy 2.4, the
passage-heavy graph, warm memory): a full H^T takes about 3.8 ms and a full
H about 2.5 ms, the bincount 2.4 ms of each. H^T's gather of u at the
entries' rows takes 1.2 ms; H repeats e in 0.6 ms, where gathering it at
the entries' columns took 1.3. Building the restricted support at a kept
share of one half costs 2.5 ms per million entries of H, most of it the
compress of the rows; its columns are a repeat of the kept passages, not a
second compress. A frontier half-step costs 7.7 ms (H^T)
and 9.3 ms (H) per million of its own entries, 2-4 times a full one; on
multihop, whose nodes hold fewer entries each, 25 and 12 ms.

Over H itself, timed side by side (median of 30 warm calls), H^T takes
1.3 ms per million entries slot-major: the gather 0.73 ms, the slot adds
0.40 ms and the scatter of the 50k sums 0.07 ms. As one bincount over each
entry's passage column, whose adds each wait on the one before, it took
2.9 ms. The restricted support keeps its bincount. Its slot rows would
need a compress per query whose mask has no runs, 1.1 ms (``np.compress``)
to 5.3 ms (a boolean index) per 600k entries; tried, it put the
passage-heavy median diffusion down 11% and the multihop one up 6%, and
the benchmark's query times no lower. Summing H slot-major for every query, with H e still
restricted, put the passage-heavy median up 3% and the multihop one 19%.

The frontier route runs while the frontier's entries are under
``_FRONTIER_MAX_SHARE`` (5%) of H's, and the first full half-step makes the
rest of the query full. Against a full half-step over the question's
support, built beforehand, a frontier H broke even at about 8% of H's
entries on multihop and 13% on passage-heavy, and a frontier H^T at 12% and
25%. But a whole diffusion took the same time, within 5%, at any cut-over
from 2% to 13%, on both benchmark graphs at seeds 1 and 3 (90 questions
each, 4 steps): step 1 starts from 2-4 entities and reaches under 1% of
the entries, and step 2's frontier holds a median 44% of them on
passage-heavy and 5% on multihop. So the cut-over stays 5%.

The restriction was first timed against full passes over H that summed
H^T by bincount, on the passage-heavy questions at seeds 1 and 3, each
whole retrieval run with and without it after the 32 MB stream that the
benchmark's calibration runs before every query: it broke even at kept
shares of about 0.7. Timed without the stream, diffusions back to back
broke even at about 0.6, and its build and half-steps alone on warm memory
at 0.8-0.9: the first pass over the freshly built support costs 1-3 ms
more than the later ones. With H^T over H slot-major, the benchmark
(``query_passage_heavy``, 20 s runs, medians of 4) read ``query_p90_ms``
24.1 and 23.5 ms at seeds 1 and 3 with a cut-over of 0.5, against 27.4 and
28.9 ms at 0.7, and ``query_p50_ms`` 18.1 and 19.2 against 19.3 and 20.8;
cut-overs of 0.4 and 0.6 read within 1.3 ms of 0.5 (3 runs each). So
``_RESTRICT_MAX_KEPT_SHARE`` is 0.5, and 37 and 58 of the 90 passage-heavy
questions with entities at seeds 1 and 3 run on H. The multihop questions
keep 0.21-0.52 of their passages: 2 of them at seed 1 and none at seed 3
keep more than half.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .entities import EntitySets
from .errors import ContractError

# Cut-overs measured on the two benchmark graphs (see the module docstring).
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
        """H's entries in slot-major ("jagged diagonal") order, derived on
        first use and kept.

        The passages are ordered by descending degree, ties by ascending
        column: a stable argsort of ``max_degree - degree``, as uint16 keys
        while they fit, else int64. Slot k holds the k-th entry of each
        passage that has more than k, so the slots' rows fill one array a
        slot at a time, with no temporary of its length.
        """
        degrees = self.degrees.edge_degrees
        widths = self.n_passages - np.cumsum(np.bincount(degrees))[:-1]
        max_degree = widths.size
        key_type = np.uint16 if max_degree < 1 << 16 else np.int64
        passages = np.argsort((max_degree - degrees).astype(key_type), kind="stable")
        rows = np.empty(self.nnz, dtype=np.intp)
        at = self.pas_offsets.take(passages).astype(np.intp)  # each passage's next entry
        start = 0
        for width in widths.tolist():
            # Each position lies in its passage's entries; mode="raise"
            # would copy through a buffer, about twice the time.
            self.pas_indices.take(at[:width], out=rows[start : start + width], mode="clip")
            at[:width] += 1
            start += width
        return SlotMajorOrder(passages=passages, widths=widths, rows=rows)


@dataclass(frozen=True, eq=False)
class EntityMajorOrder:
    """The entries of H grouped by entity: entity i's entries are
    ``offsets[i]:offsets[i+1]``, and ``columns`` holds their passage
    columns, ascending inside each entity."""

    offsets: np.ndarray  # intp, len n_entities + 1
    columns: np.ndarray  # int32, len nnz


@dataclass(frozen=True, eq=False)
class SlotMajorOrder:
    """The entries of H slot by slot: slot k holds the k-th entry of each of
    the first ``widths[k]`` of ``passages``, which are ordered by descending
    degree, so ``widths`` does not increase. ``rows`` holds the slots'
    entity rows, slot after slot."""

    passages: np.ndarray  # intp, len n_passages
    widths: np.ndarray  # int64, len max passage degree
    rows: np.ndarray  # intp, len nnz

    def passage_sums(self, u: np.ndarray) -> np.ndarray:
        """H^T u: one gather, one vector add per slot, one scatter back to
        passage order. Each passage's terms are added in ascending entity
        order from +0.0, as a bincount over the passage-major entries adds
        them, so the sums are bit for bit the same."""
        values = u.take(self.rows)
        sums = np.zeros(self.passages.shape[0])
        start = 0
        for width in self.widths.tolist():
            sums[:width] += values[start : start + width]
            start += width
        out = np.empty_like(sums)
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
        self._entries: tuple[np.ndarray, np.ndarray] | None = None
        self._kept: tuple[np.ndarray, np.ndarray] | None = None  # kept passages, their degrees

    @property
    def full(self) -> bool:
        """Whether a half-step has gone full, so that every later one is."""
        return self._entries is not None

    def entries(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The support's (entity rows, passage columns), passage-major; the
        columns are None when the support is H itself, whose H^T runs on
        ``slot_major`` instead. The first call builds them and makes the
        support full."""
        if self._entries is None:
            inc, degrees = self.incidence, self.incidence.degrees.edge_degrees
            keep = self.edge_weights > 0
            kept = np.flatnonzero(keep)
            if kept.size <= _RESTRICT_MAX_KEPT_SHARE * inc.n_passages:
                self._kept = kept, degrees[kept]
                rows = inc.pas_indices[np.repeat(keep, degrees)]
                self._entries = rows, np.repeat(*self._kept)
            else:
                self._entries = inc.pas_indices, None
        return self._entries

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
        rows, columns = self.entries()
        if columns is None:
            return inc.slot_major.passage_sums(u)
        return _sums(columns, u.take(rows), inc.n_passages)

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
        rows, _ = self.entries()
        if self._kept is None:
            values = np.repeat(e, inc.degrees.edge_degrees)
        else:
            kept, counts = self._kept
            values = np.repeat(e.take(kept), counts)
        return _sums(rows, values, inc.n_entities)


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
