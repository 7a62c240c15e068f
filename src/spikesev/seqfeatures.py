"""Sequence-level descriptors and the weighted per-residue encoding.

Global descriptors summarize a whole amino-acid sequence in 29 numbers laid
out as [aac(20), length, diversity, mean_hydrophobicity, net_charge,
ss_fractions(3), polarity, hbond_potential]. The per-residue encoding maps
each position to a 10-column row and up-weights the receptor-binding domain
(positions 319..541, 1-based, inclusive) by a factor of 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scales import AMINO_ACIDS, ScalesRegistry

RBD_START = 319
RBD_END = 541
RBD_WEIGHT = 5.0

PHYSIOLOGICAL_PH = 7.4

GLOBAL_DESCRIPTOR_LENGTH = 29

_AA_INDEX = {aa: i for i, aa in enumerate(AMINO_ACIDS)}


def _check_sequence(sequence: str) -> None:
    if not sequence:
        raise ValueError("empty sequence")
    bad = set(sequence) - set(AMINO_ACIDS)
    if bad:
        raise ValueError(f"non-canonical residues in sequence: {sorted(bad)}")


def amino_acid_composition(sequence: str) -> np.ndarray:
    """Residue frequencies in fixed alphabetical order (A, C, D, ..., Y)."""
    _check_sequence(sequence)
    counts = np.zeros(20, dtype=np.float64)
    for aa in sequence:
        counts[_AA_INDEX[aa]] += 1
    return counts / len(sequence)


def mean_hydrophobicity(sequence: str, registry: ScalesRegistry) -> float:
    _check_sequence(sequence)
    table = registry.hydrophobicity
    return sum(table[aa] for aa in sequence) / len(sequence)


def net_charge(sequence: str, registry: ScalesRegistry, ph: float = PHYSIOLOGICAL_PH) -> float:
    """Henderson-Hasselbalch net charge, termini included once per chain.

    Positive groups (K, R, H side chains and the N-terminus) contribute
    1/(1+10^(pH-pKa)); acidic groups (D, E, C, Y side chains and the
    C-terminus) contribute -1/(1+10^(pKa-pH)).
    """
    _check_sequence(sequence)
    if not 0.0 < ph < 14.0:
        raise ValueError(f"pH must lie in (0, 14), got {ph}")
    pka = registry.pka_side_chain
    charge = 0.0
    for aa in sequence:
        if aa in "KRH":
            charge += 1.0 / (1.0 + 10.0 ** (ph - pka[aa]))
        elif aa in "DECY":
            charge -= 1.0 / (1.0 + 10.0 ** (pka[aa] - ph))
    n_term, c_term = registry.pka_termini
    charge += 1.0 / (1.0 + 10.0 ** (ph - n_term))
    charge -= 1.0 / (1.0 + 10.0 ** (c_term - ph))
    return charge


def ss_fractions(sequence: str, registry: ScalesRegistry) -> np.ndarray:
    """Fractions of residues in the helix, strand and coil class sets.

    The sets may overlap, so the three fractions need not sum to 1.
    """
    _check_sequence(sequence)
    sets = registry.class_sets
    n = len(sequence)
    return np.array(
        [
            sum(1 for aa in sequence if aa in sets[name]) / n
            for name in ("helix_class", "strand_class", "coil_class")
        ],
        dtype=np.float64,
    )


def weighted_polarity(sequence: str, registry: ScalesRegistry) -> float:
    """Frequency-weighted polarity; equals the mean per-residue polarity."""
    _check_sequence(sequence)
    table = registry.polarity
    return sum(table[aa] for aa in sequence) / len(sequence)


def hbond_potential(sequence: str, registry: ScalesRegistry) -> float:
    _check_sequence(sequence)
    capable = registry.class_sets["hbond_capable"]
    return sum(1 for aa in sequence if aa in capable) / len(sequence)


@dataclass(frozen=True)
class GlobalDescriptors:
    aac: np.ndarray
    length: int
    diversity: int
    mean_hydrophobicity: float
    net_charge: float
    ss_fractions: np.ndarray
    polarity: float
    hbond_potential: float

    def to_vector(self) -> np.ndarray:
        """Fixed 29-slot layout: [aac | length | diversity | hydro | charge | ss | polarity | hbond]."""
        return np.concatenate(
            [
                self.aac,
                [
                    float(self.length),
                    float(self.diversity),
                    self.mean_hydrophobicity,
                    self.net_charge,
                ],
                self.ss_fractions,
                [self.polarity, self.hbond_potential],
            ]
        )


def global_descriptors(sequence: str, registry: ScalesRegistry) -> GlobalDescriptors:
    _check_sequence(sequence)
    return GlobalDescriptors(
        aac=amino_acid_composition(sequence),
        length=len(sequence),
        diversity=len(set(sequence)),
        mean_hydrophobicity=mean_hydrophobicity(sequence, registry),
        net_charge=net_charge(sequence, registry),
        ss_fractions=ss_fractions(sequence, registry),
        polarity=weighted_polarity(sequence, registry),
        hbond_potential=hbond_potential(sequence, registry),
    )


def _minmax_normalized(table: dict[str, float]) -> dict[str, float]:
    lo, hi = min(table.values()), max(table.values())
    span = hi - lo
    return {aa: (v - lo) / span for aa, v in table.items()}


def residue_row_table(registry: ScalesRegistry) -> np.ndarray:
    """Unweighted 10-column row per residue, indexed by alphabetical order.

    Continuous columns are min-max normalized over the registry's 20 values.
    Structure class is one-hot with priority helix > strand, coil as the
    fallback so every residue gets exactly one structure flag.
    """
    pol = _minmax_normalized(registry.polarity)
    pi = _minmax_normalized(registry.isoelectric_point)
    hyd = _minmax_normalized(registry.hydrophobicity)
    sets = registry.class_sets
    rows = np.zeros((20, 10), dtype=np.float64)
    for i, aa in enumerate(AMINO_ACIDS):
        if aa in sets["helix_class"]:
            ss = (1.0, 0.0, 0.0)
        elif aa in sets["strand_class"]:
            ss = (0.0, 1.0, 0.0)
        else:
            ss = (0.0, 0.0, 1.0)
        rows[i] = (
            pol[aa],
            pi[aa],
            hyd[aa],
            float(aa in sets["polar"]),
            float(aa in sets["charged"]),
            float(aa in sets["aromatic"]),
            float(aa in sets["aliphatic"]),
            *ss,
        )
    return rows


def rbd_weights(length: int) -> np.ndarray:
    """Per-position weights: RBD_WEIGHT inside [RBD_START, RBD_END], else 1."""
    weights = np.ones(length, dtype=np.float64)
    lo = RBD_START - 1
    hi = min(RBD_END, length)
    if lo < length:
        weights[lo:hi] = RBD_WEIGHT
    return weights


@dataclass(frozen=True)
class ResidueEncoding:
    matrix: np.ndarray  # (L, 10), rows already multiplied by rbd_weights
    rbd_weights: np.ndarray  # (L,)


def residue_encoding(sequence: str, registry: ScalesRegistry) -> ResidueEncoding:
    _check_sequence(sequence)
    table = residue_row_table(registry)
    idx = np.fromiter((_AA_INDEX[aa] for aa in sequence), dtype=np.intp, count=len(sequence))
    weights = rbd_weights(len(sequence))
    return ResidueEncoding(matrix=table[idx] * weights[:, None], rbd_weights=weights)
