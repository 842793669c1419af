"""Sparse entity-passage incidence structure and the diffusion operator.

The hypergraph stores the binary incidence matrix H (entities x passages)
once, passage-major: for passage j,
``pas_indices[pas_offsets[j]:pas_offsets[j+1]]`` lists the entity rows of j
in strictly ascending order. Both propagation directions scan these arrays:
H vec scatters each passage's value onto its rows, and H^T vec gathers the
rows' values and sums them per passage. Because rows ascend inside each
passage, H^T adds each passage's terms in ascending entity order, so its
result is bit for bit the one an entity-major transpose would give. Node
and hyperedge degrees are derived from the two arrays, never stored.

``keep_passages`` restricts H to a subset of its passages: the dropped
passages' entries are removed and every other entry keeps its position
relative to the rest. Retrieval uses it to drop, once per query, the
passages whose hyperedge weight is zero when they are at least a third of
all; they carry no mass, so the diffusion over the restricted H adds the
same nonzero terms in the same order and its result is bit for bit the full
one.

The diffusion operator applies the passage-weighted symmetric normalized
propagation matrix

    D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2}

to an entity vector without ever materializing a matrix. Hyperedges with
zero degree use the pseudo-inverse convention 1/0 := 0, so entityless
passages are inert under diffusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entities import EntityCatalog, EntitySets
from .errors import ContractError


@dataclass
class IncidenceMatrix:
    """Binary incidence matrix in passage-major compressed form.

    ``pas_columns`` is the passage column of each entry, which turns H^T
    and H each into one gather and one ``bincount``; it is derived from
    ``pas_offsets`` unless the caller already holds it. Both per-entry
    arrays are held as intp, the index type numpy gathers and counts in, so
    no propagation step converts them; on disk they are int32.
    """

    n_entities: int
    n_passages: int
    pas_offsets: np.ndarray  # int32, len n_passages + 1
    pas_indices: np.ndarray  # intp, len nnz, entity row per entry, ascending per passage
    pas_columns: np.ndarray | None = field(default=None, repr=False, compare=False)  # intp, len nnz

    def __post_init__(self):
        self.pas_indices = np.asarray(self.pas_indices, dtype=np.intp)
        if self.pas_columns is None:
            self.pas_columns = np.repeat(
                np.arange(self.n_passages, dtype=np.intp), np.diff(self.pas_offsets)
            )

    @property
    def nnz(self) -> int:
        return int(self.pas_indices.shape[0])


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


def build_incidence(entity_sets: EntitySets, catalog: EntityCatalog) -> IncidenceMatrix:
    """Build H from per-passage entity sets, columns in the given order.

    Rows are sorted ascending inside each passage. Every entity must already
    be cataloged; a missing entity indicates an inconsistent build and
    raises ContractError.
    """
    rows = catalog.rows_of(entity_sets.names)[entity_sets.ids]
    columns = entity_sets.columns()
    if rows.size and rows.min() < 0:  # name the first passage with a missing entity
        at = int(np.argmax(rows < 0))
        entity = entity_sets.names[entity_sets.ids[at]]
        passage_id = entity_sets.passage_ids[columns[at]]
        raise ContractError(f"passage {passage_id!r}: entity {entity!r} not in catalog")
    # Passages ascend already; one sort of (passage, row) keys puts the rows
    # of each passage in ascending order.
    n_entities = len(catalog)
    column_bases = columns * n_entities
    rows = np.sort(column_bases + rows) - column_bases
    return IncidenceMatrix(
        n_entities=n_entities,
        n_passages=len(entity_sets),
        pas_offsets=entity_sets.offsets.astype(np.int32),
        pas_indices=rows,
        pas_columns=columns,
    )


def compute_degrees(incidence: IncidenceMatrix) -> DegreeVectors:
    """Row and column sums of H as integer vectors, and their reciprocals."""
    node_degrees = np.bincount(incidence.pas_indices, minlength=incidence.n_entities)
    node_degrees = node_degrees.astype(np.int64)
    edge_degrees = np.diff(incidence.pas_offsets).astype(np.int64)
    return DegreeVectors(
        node_degrees=node_degrees,
        edge_degrees=edge_degrees,
        inv_sqrt_node=_reciprocal(np.sqrt(node_degrees.astype(np.float64))),
        inv_edge=_reciprocal(edge_degrees.astype(np.float64)),
    )


def _reciprocal(values: np.ndarray) -> np.ndarray:
    """1 / values, with 1 / 0 := 0 (entityless passages stay inert)."""
    with np.errstate(divide="ignore"):
        inv = 1.0 / values
    inv[values == 0] = 0.0
    return inv


def keep_passages(incidence: IncidenceMatrix, keep: np.ndarray) -> IncidenceMatrix:
    """H with the entries of every passage where ``keep`` is false removed.

    The shape stays the same; a dropped passage becomes an empty column.
    The kept entries stay in order, so H and H^T over the result add the
    same terms in the same order as over ``incidence``, less the dropped
    passages' terms. When every passage is kept, ``incidence`` itself is
    returned.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (incidence.n_passages,):
        raise ContractError(
            f"keep mask has shape {keep.shape}, expected ({incidence.n_passages},)"
        )
    if keep.all():
        return incidence
    entries = keep[incidence.pas_columns]
    offsets = np.zeros_like(incidence.pas_offsets)
    np.cumsum(np.where(keep, np.diff(incidence.pas_offsets), 0), out=offsets[1:])
    return IncidenceMatrix(
        n_entities=incidence.n_entities,
        n_passages=incidence.n_passages,
        pas_offsets=offsets,
        pas_indices=incidence.pas_indices[entries],
        pas_columns=incidence.pas_columns[entries],
    )


def entity_to_passage(vec: np.ndarray, incidence: IncidenceMatrix) -> np.ndarray:
    """H^T vec: sum the values of each passage's entities."""
    if vec.shape != (incidence.n_entities,):
        raise ContractError(
            f"entity vector has length {vec.shape}, expected ({incidence.n_entities},)"
        )
    out = np.bincount(
        incidence.pas_columns,
        weights=vec[incidence.pas_indices],
        minlength=incidence.n_passages,
    )
    return out.astype(np.float64, copy=False)  # bincount yields int64 when nnz == 0


def passage_to_entity(vec: np.ndarray, incidence: IncidenceMatrix) -> np.ndarray:
    """H vec: accumulate each passage's value into the entities it contains."""
    if vec.shape != (incidence.n_passages,):
        raise ContractError(
            f"passage vector has length {vec.shape}, expected ({incidence.n_passages},)"
        )
    out = np.bincount(
        incidence.pas_indices, weights=vec[incidence.pas_columns], minlength=incidence.n_entities
    )
    return out.astype(np.float64, copy=False)


def apply_diffusion_operator(
    x: np.ndarray,
    incidence: IncidenceMatrix,
    degrees: DegreeVectors,
    edge_weights: np.ndarray,
) -> np.ndarray:
    """One application of D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2} to x.

    Runs as staged sparse passes: scale, gather to passages, reweight,
    scatter back to entities, scale. ``edge_weights`` entries are expected
    in [0, 1] (clamped upstream); zero-degree passages contribute nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    edge_weights = np.asarray(edge_weights, dtype=np.float64)
    if x.shape != (incidence.n_entities,):
        raise ContractError(
            f"x has shape {x.shape}, expected ({incidence.n_entities},)"
        )
    if edge_weights.shape != (incidence.n_passages,):
        raise ContractError(
            f"edge_weights has shape {edge_weights.shape}, expected ({incidence.n_passages},)"
        )
    u = x * degrees.inv_sqrt_node
    e = entity_to_passage(u, incidence)
    e *= edge_weights * degrees.inv_edge
    y = passage_to_entity(e, incidence)
    y *= degrees.inv_sqrt_node
    return y


def graph_stats(incidence: IncidenceMatrix, degrees: DegreeVectors) -> dict:
    """Graph-scale statistics of an index, as ``hyperhop stats`` prints them;
    a histogram maps each degree, as a string, to its count."""

    def histogram(deg: np.ndarray) -> dict[str, int]:
        values, counts = np.unique(deg, return_counts=True)
        return {str(v): int(c) for v, c in zip(values, counts)}

    return {
        "nodes": incidence.n_entities,
        "hyperedges": incidence.n_passages,
        "incidences": incidence.nnz,
        "node_degree_histogram": histogram(degrees.node_degrees),
        "edge_degree_histogram": histogram(degrees.edge_degrees),
        "zero_degree_hyperedges": int(np.count_nonzero(degrees.edge_degrees == 0)),
    }
