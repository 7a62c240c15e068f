"""Registry of per-residue constant tables (scales, pKa values, class sets).

The registry is loaded from a human-readable TSV table. Its content hash is
computed over a canonical serialization of the values, so the hash changes
iff a value changes (comments and row order do not matter), and it is stamped
into every file derived from the registry.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from importlib import resources

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

_NON_CANONICAL = re.compile(f"[^{AMINO_ACIDS}]")


def first_non_canonical(sequence: str) -> int:
    """Offset of the first character of `sequence` that is not one of the 20
    canonical upper-case residues; -1 if there is none."""
    match = _NON_CANONICAL.search(sequence)
    return -1 if match is None else match.start()


def check_residues(sequence: str) -> None:
    """ValueError unless `sequence` is non-empty and made of the 20
    canonical upper-case residues."""
    if not sequence:
        raise ValueError("empty sequence")
    if first_non_canonical(sequence) >= 0:
        bad = set(sequence) - set(AMINO_ACIDS)
        raise ValueError(f"non-canonical residues in sequence: {sorted(bad)}")

IONIZABLE_SIDE_CHAINS = frozenset("CDEHKRY")

# Residue sets every registry must define. hbond_capable is fixed by contract:
# serine, threonine, asparagine, glutamine, histidine, tyrosine.
REQUIRED_CLASS_SETS = (
    "polar",
    "charged",
    "aromatic",
    "aliphatic",
    "hbond_capable",
    "helix_class",
    "strand_class",
    "coil_class",
)
HBOND_CAPABLE = frozenset("HNQSTY")

_SCALE_NAMES = ("hydrophobicity", "polarity", "isoelectric_point")

_DEFAULT_RESOURCE = "scales_v1.tsv"


class RegistryError(ValueError):
    """Raised when a registry table is malformed or violates its invariants."""


@dataclass(frozen=True)
class ScalesRegistry:
    """Immutable per-residue constant tables."""

    version: str
    hydrophobicity: dict[str, float]
    polarity: dict[str, float]
    isoelectric_point: dict[str, float]
    pka_side_chain: dict[str, float]
    pka_termini: tuple[float, float]  # (n_term, c_term)
    class_sets: dict[str, frozenset[str]]
    _hash: str = field(default="", compare=False)

    def __post_init__(self):
        for name in _SCALE_NAMES:
            table = getattr(self, name)
            if set(table) != set(AMINO_ACIDS):
                raise RegistryError(f"scale {name!r} must cover all 20 residues")
            if len(set(table.values())) == 1:
                raise RegistryError(f"scale {name!r} gives all 20 residues one value: min-max cannot scale it")
        if set(self.pka_side_chain) != set(IONIZABLE_SIDE_CHAINS):
            raise RegistryError(
                "pka_side_chain must cover exactly the ionizable residues "
                + ",".join(sorted(IONIZABLE_SIDE_CHAINS))
            )
        missing = [n for n in REQUIRED_CLASS_SETS if n not in self.class_sets]
        if missing:
            raise RegistryError(f"missing class sets: {', '.join(missing)}")
        if self.class_sets["hbond_capable"] != HBOND_CAPABLE:
            raise RegistryError("hbond_capable must be exactly {S,T,N,Q,H,Y}")
        for name, members in self.class_sets.items():
            bad = members - set(AMINO_ACIDS)
            if bad:
                raise RegistryError(f"class set {name!r} has non-canonical residues {sorted(bad)}")
        object.__setattr__(self, "_hash", _content_hash(self))

    @property
    def content_hash(self) -> str:
        return self._hash


def canonical_lines(reg: ScalesRegistry) -> list[str]:
    """Canonical row serialization: fixed section order, sorted keys."""
    lines = [f"version\tregistry\t{reg.version}"]
    for name in _SCALE_NAMES:
        table = getattr(reg, name)
        lines.extend(f"{name}\t{aa}\t{table[aa]!r}" for aa in sorted(table))
    lines.extend(f"pka_side_chain\t{aa}\t{reg.pka_side_chain[aa]!r}" for aa in sorted(reg.pka_side_chain))
    lines.append(f"pka_terminus\tn\t{reg.pka_termini[0]!r}")
    lines.append(f"pka_terminus\tc\t{reg.pka_termini[1]!r}")
    for name in REQUIRED_CLASS_SETS:
        lines.append(f"class_set\t{name}\t{''.join(sorted(reg.class_sets[name]))}")
    return lines


def _content_hash(reg: ScalesRegistry) -> str:
    text = "\n".join(canonical_lines(reg)) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise RegistryError(f"line {lineno}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise RegistryError(f"line {lineno}: expected a finite number, got {text!r}")
    return value


def parse_registry(text: str) -> ScalesRegistry:
    """The registry of a TSV table of `kind<TAB>key<TAB>value` rows. A
    malformed row, a non-finite number, or a kind and key given twice
    raises RegistryError naming the line."""
    version = None
    scales: dict[str, dict[str, float]] = {n: {} for n in _SCALE_NAMES}
    pka_side: dict[str, float] = {}
    pka_term: dict[str, float] = {}
    class_sets: dict[str, frozenset[str]] = {}
    first_line: dict[tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise RegistryError(f"line {lineno}: expected 3 tab-separated fields")
        kind, key, value = parts
        if (kind, key) in first_line:
            raise RegistryError(f"line {lineno}: repeated row {kind} {key} (first on line {first_line[kind, key]})")
        first_line[kind, key] = lineno
        if kind == "version":
            version = value
        elif kind in scales:
            scales[kind][key] = _finite(value, lineno)
        elif kind == "pka_side_chain":
            pka_side[key] = _finite(value, lineno)
        elif kind == "pka_terminus":
            pka_term[key] = _finite(value, lineno)
        elif kind == "class_set":
            class_sets[key] = frozenset(value)
        else:
            raise RegistryError(f"line {lineno}: unknown row kind {kind!r}")
    if version is None:
        raise RegistryError("registry table has no version row")
    if set(pka_term) != {"n", "c"}:
        raise RegistryError("registry must define exactly the n and c terminus pKa values")
    return ScalesRegistry(
        version=version,
        hydrophobicity=scales["hydrophobicity"],
        polarity=scales["polarity"],
        isoelectric_point=scales["isoelectric_point"],
        pka_side_chain=pka_side,
        pka_termini=(pka_term["n"], pka_term["c"]),
        class_sets=class_sets,
    )


def default_registry() -> ScalesRegistry:
    text = resources.files("spikesev").joinpath(f"data/{_DEFAULT_RESOURCE}").read_text("utf-8")
    return parse_registry(text)
