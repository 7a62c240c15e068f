"""Sequence-level descriptors and the weighted per-residue encoding.

`global_descriptors` summarizes a whole amino-acid sequence in 29 numbers
laid out as [aac(20), length, diversity, mean_hydrophobicity, net_charge,
ss_fractions(3), polarity, hbond_potential]; net charge is computed at
PHYSIOLOGICAL_PH (7.4) only. `residue_encoding` maps each position to a
10-column row of `residue_row_table` and up-weights the receptor-binding
domain (positions 319..541, 1-based, inclusive) by a factor of 5.
`write_sequence_features` stores both, in that order, into a float32 row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scales import AMINO_ACIDS, ScalesRegistry, check_residues

RBD_START = 319
RBD_END = 541
RBD_WEIGHT = 5.0

PHYSIOLOGICAL_PH = 7.4

GLOBAL_DESCRIPTOR_LENGTH = 29

# Alphabetical residue index of each byte value; -1 for every other byte.
_INDEX_OF_BYTE = np.full(256, -1, dtype=np.intp)
_INDEX_OF_BYTE[np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)] = np.arange(20)


def byte_residue_indices(sequence: str) -> np.ndarray:
    """Alphabetical residue index of each UTF-8 byte of `sequence`; -1 for a
    byte that is not one of the 20 canonical upper-case residues.

    Every byte before the first -1 is an ASCII residue, so the offset of the
    first -1 is also the offset of the first invalid character.
    """
    return _INDEX_OF_BYTE[np.frombuffer(sequence.encode("utf-8", "replace"), dtype=np.uint8)]


def residue_indices(sequence: str) -> np.ndarray:
    """Alphabetical residue index (A=0, ..., Y=19) of each position.

    The sequence must be non-empty and made of the 20 canonical upper-case
    residues (`scales.check_residues`).
    """
    check_residues(sequence)
    return byte_residue_indices(sequence)


def _scale(table: dict[str, float]) -> np.ndarray:
    return np.array([table[aa] for aa in AMINO_ACIDS])


def _members(residues: frozenset[str]) -> np.ndarray:
    return np.array([float(aa in residues) for aa in AMINO_ACIDS])


def _side_chain_charges(registry: ScalesRegistry) -> np.ndarray:
    """Henderson-Hasselbalch side-chain charge of each residue at
    PHYSIOLOGICAL_PH: 1/(1+10^(pH-pKa)) for K, R and H, -1/(1+10^(pKa-pH))
    for D, E, C and Y."""
    ph, pka = PHYSIOLOGICAL_PH, registry.pka_side_chain
    charges = dict.fromkeys(AMINO_ACIDS, 0.0)
    charges.update({aa: 1.0 / (1.0 + 10.0 ** (ph - pka[aa])) for aa in "KRH"})
    charges.update({aa: -1.0 / (1.0 + 10.0 ** (pka[aa] - ph)) for aa in "DECY"})
    return _scale(charges)


def _net_charge(side_chains: float, registry: ScalesRegistry) -> float:
    """The side chains' summed charge plus the termini's, once per chain,
    at PHYSIOLOGICAL_PH."""
    ph, (n_term, c_term) = PHYSIOLOGICAL_PH, registry.pka_termini
    return side_chains + 1.0 / (1.0 + 10.0 ** (ph - n_term)) - 1.0 / (1.0 + 10.0 ** (c_term - ph))


# Keyed by content hash: an entry depends on the registry's values alone, so
# every registry with the same values shares it.
_COLUMNS: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _columns(registry: ScalesRegistry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-residue columns of `registry`, built once per content hash: the
    (20, 7) descriptor columns [hydrophobicity, side-chain charge at
    PHYSIOLOGICAL_PH, helix, strand and coil class, polarity, hbond_capable],
    and the (40, 10) weighted residue table in float64 and float32. Rows
    0-19 of the table are `residue_row_table`, rows 20-39 the same rows times
    RBD_WEIGHT; `_weighted_rows` indexes it."""
    if registry.content_hash not in _COLUMNS:
        sets = registry.class_sets
        descriptor = np.column_stack([
            _scale(registry.hydrophobicity),
            _side_chain_charges(registry),
            *(_members(sets[name]) for name in ("helix_class", "strand_class", "coil_class")),
            _scale(registry.polarity),
            _members(sets["hbond_capable"]),
        ])
        rows = residue_row_table(registry)
        table = np.concatenate([rows, rows * RBD_WEIGHT])
        _COLUMNS[registry.content_hash] = descriptor, table, table.astype(np.float32)
    return _COLUMNS[registry.content_hash]


@dataclass(frozen=True)
class GlobalDescriptors:
    aac: np.ndarray
    length: int
    diversity: int
    mean_hydrophobicity: float
    net_charge: float
    ss_fractions: np.ndarray  # helix, strand and coil class fractions; the sets may overlap
    polarity: float
    hbond_potential: float

    def to_vector(self) -> np.ndarray:
        """Fixed 29-slot layout: [aac | length | diversity | hydro | charge | ss | polarity | hbond]."""
        scalars = [self.length, self.diversity, self.mean_hydrophobicity, self.net_charge]
        tail = [self.polarity, self.hbond_potential]
        return np.concatenate([self.aac, scalars, self.ss_fractions, tail])


def _descriptors(counts: np.ndarray, registry: ScalesRegistry) -> GlobalDescriptors:
    """The descriptors of a sequence with these residue counts: each is one
    product of the counts with a per-residue column."""
    n = int(counts.sum())
    hydro, side_chains, helix, strand, coil, polarity, hbond = counts @ _columns(registry)[0]
    return GlobalDescriptors(
        aac=counts / n,
        length=n,
        diversity=int(np.count_nonzero(counts)),
        mean_hydrophobicity=hydro / n,
        net_charge=_net_charge(side_chains, registry),
        ss_fractions=np.array([helix, strand, coil]) / n,
        polarity=polarity / n,
        hbond_potential=hbond / n,
    )


def global_descriptors(sequence: str, registry: ScalesRegistry) -> GlobalDescriptors:
    return _descriptors(np.bincount(residue_indices(sequence), minlength=20), registry)


def residue_row_table(registry: ScalesRegistry) -> np.ndarray:
    """Unweighted 10-column row per residue, indexed by alphabetical order.

    Continuous columns are min-max normalized over the registry's 20 values.
    Structure class is one-hot with priority helix > strand, coil as the
    fallback so every residue gets exactly one structure flag.
    """
    sets = registry.class_sets
    helix = _members(sets["helix_class"])
    strand = _members(sets["strand_class"]) * (1.0 - helix)
    scales = [registry.polarity, registry.isoelectric_point, registry.hydrophobicity]
    return np.column_stack([
        *((v - v.min()) / (v.max() - v.min()) for v in map(_scale, scales)),
        *(_members(sets[name]) for name in ("polar", "charged", "aromatic", "aliphatic")),
        helix,
        strand,
        1.0 - helix - strand,
    ])


def _weighted_rows(idx: np.ndarray) -> np.ndarray:
    """Row of the weighted residue table for each position: the residue
    index, plus 20 inside [RBD_START, RBD_END]."""
    rows = idx.copy()
    rows[RBD_START - 1 : RBD_END] += 20
    return rows


def residue_encoding(sequence: str, registry: ScalesRegistry) -> np.ndarray:
    """The (L, 10) weighted residue matrix: each position's row of
    `residue_row_table`, times RBD_WEIGHT inside [RBD_START, RBD_END]."""
    return _columns(registry)[1][_weighted_rows(residue_indices(sequence))]


def write_sequence_features(out: np.ndarray, sequence: str, registry: ScalesRegistry) -> int:
    """Store the head of a feature vector into the float32 `out`: the
    `global_descriptors` vector, then the `residue_encoding` rows row-major,
    truncated at the end of `out`. Return the full head's length. `out` holds
    at least GLOBAL_DESCRIPTOR_LENGTH values.

    The residue rows are gathered from the float32 table straight into
    `out`, which gives the same bytes as rounding the float64 rows on store.
    """
    idx = residue_indices(sequence)
    out[:GLOBAL_DESCRIPTOR_LENGTH] = _descriptors(np.bincount(idx, minlength=20), registry).to_vector()
    rows = _weighted_rows(idx)
    block = out[GLOBAL_DESCRIPTOR_LENGTH : GLOBAL_DESCRIPTOR_LENGTH + 10 * len(rows)]
    full, part = divmod(block.size, 10)
    table = _columns(registry)[2]
    # Every row index is in range, so "clip" only spares take's buffered `out`.
    np.take(table, rows[:full], axis=0, out=block[: 10 * full].reshape(full, 10), mode="clip")
    if part:
        block[10 * full :] = table[rows[full], :part]
    return GLOBAL_DESCRIPTOR_LENGTH + 10 * len(rows)
