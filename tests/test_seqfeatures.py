import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesev.scales import AMINO_ACIDS, default_registry
from spikesev.seqfeatures import (
    GLOBAL_DESCRIPTOR_LENGTH,
    RBD_END,
    RBD_START,
    RBD_WEIGHT,
    global_descriptors,
    residue_encoding,
    residue_row_table,
    write_sequence_features,
)

REG = default_registry()


def _describe(seq):
    return global_descriptors(seq, REG)


sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=80)


class TestComposition:
    def test_single_residue_sequence(self):
        aac = _describe("AAAA").aac
        assert aac[0] == 1.0
        assert aac[1:].sum() == 0.0

    def test_direct_counts(self):
        aac = _describe("ACDC").aac
        assert aac[AMINO_ACIDS.index("A")] == pytest.approx(0.25)
        assert aac[AMINO_ACIDS.index("C")] == pytest.approx(0.5)
        assert aac[AMINO_ACIDS.index("D")] == pytest.approx(0.25)

    @given(sequences)
    def test_sums_to_one(self, seq):
        aac = _describe(seq).aac
        assert abs(aac.sum() - 1.0) < 1e-9
        assert (aac >= 0).all() and (aac <= 1).all()

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            _describe("")


class TestHydrophobicity:
    def test_two_residue_lookup(self):
        # published hydropathy values: A = 1.8, I = 4.5
        assert _describe("AI").mean_hydrophobicity == pytest.approx(3.15)

    def test_constant_sequence_equals_scale_value(self):
        assert _describe("RR").mean_hydrophobicity == pytest.approx(REG.hydrophobicity["R"])

    @given(sequences)
    def test_permutation_invariance(self, seq):
        shuffled = "".join(sorted(seq))
        assert _describe(seq).mean_hydrophobicity == pytest.approx(
            _describe(shuffled).mean_hydrophobicity
        )


def _site_charge(ph: float, pka: float, acidic: bool) -> float:
    # independent per-site Henderson-Hasselbalch evaluation
    if acidic:
        return -1.0 / (1.0 + 10.0 ** (pka - ph))
    return 1.0 / (1.0 + 10.0 ** (ph - pka))


class TestNetCharge:
    def test_no_ionizable_side_chains_reduces_to_termini(self):
        n_term, c_term = REG.pka_termini
        expected = _site_charge(7.4, n_term, acidic=False) + _site_charge(7.4, c_term, acidic=True)
        assert _describe("GGG").net_charge == pytest.approx(expected, abs=1e-12)

    def test_lysine_homopolymer_matches_per_site_oracle(self):
        n_term, c_term = REG.pka_termini
        expected = (
            4 * _site_charge(7.4, REG.pka_side_chain["K"], acidic=False)
            + _site_charge(7.4, n_term, acidic=False)
            + _site_charge(7.4, c_term, acidic=True)
        )
        assert _describe("KKKK").net_charge == pytest.approx(expected, abs=1e-12)

    def test_mixed_sequence_matches_per_site_oracle(self):
        seq = "KDHECYRA"
        n_term, c_term = REG.pka_termini
        expected = _site_charge(7.4, n_term, False) + _site_charge(7.4, c_term, True)
        for aa in seq:
            if aa in "KRH":
                expected += _site_charge(7.4, REG.pka_side_chain[aa], False)
            elif aa in "DECY":
                expected += _site_charge(7.4, REG.pka_side_chain[aa], True)
        assert _describe(seq).net_charge == pytest.approx(expected, abs=1e-12)


class TestStructureFractions:
    def test_all_helix_class_sequence(self):
        seq = "VIY"  # every residue in the helix class set
        assert all(aa in REG.class_sets["helix_class"] for aa in seq)
        helix, strand, coil = _describe(seq).ss_fractions
        assert helix == 1.0
        assert 0.0 <= strand <= 1.0 and 0.0 <= coil <= 1.0

    def test_residue_in_no_class(self):
        sets = REG.class_sets
        aa = next(
            a
            for a in AMINO_ACIDS
            if a not in sets["helix_class"] and a not in sets["strand_class"] and a not in sets["coil_class"]
        )
        assert _describe(aa).ss_fractions.tolist() == [0.0, 0.0, 0.0]

    @given(sequences)
    def test_each_fraction_in_unit_interval(self, seq):
        fracs = _describe(seq).ss_fractions
        assert (fracs >= 0.0).all() and (fracs <= 1.0).all()


class TestPolarityAndHBond:
    def test_constant_sequence(self):
        assert _describe("NNN").polarity == pytest.approx(REG.polarity["N"])

    def test_two_residue_lookup(self):
        # published hydrophilicity values: D = 3.0, K = 3.0
        assert _describe("DK").polarity == pytest.approx(3.0)

    @given(sequences)
    def test_equals_mean_over_residues(self, seq):
        expected = sum(REG.polarity[aa] for aa in seq) / len(seq)
        assert _describe(seq).polarity == pytest.approx(expected)

    def test_hbond_examples(self):
        assert _describe("STNQ").hbond_potential == 1.0
        assert _describe("AAAA").hbond_potential == 0.0
        assert _describe("SA").hbond_potential == 0.5

    @given(sequences)
    def test_hbond_in_unit_interval(self, seq):
        assert 0.0 <= _describe(seq).hbond_potential <= 1.0


class TestGlobalDescriptors:
    def test_length_and_diversity(self):
        d = global_descriptors("ACDC", REG)
        assert d.length == 4
        assert d.diversity == 3

    def test_vector_layout(self):
        d = global_descriptors("ACDC", REG)
        vec = d.to_vector()
        assert vec.shape == (GLOBAL_DESCRIPTOR_LENGTH,)
        np.testing.assert_array_equal(vec[:20], d.aac)
        assert vec[20] == d.length
        assert vec[21] == d.diversity
        assert vec[22] == d.mean_hydrophobicity
        assert vec[23] == d.net_charge
        np.testing.assert_array_equal(vec[24:27], d.ss_fractions)
        assert vec[27] == d.polarity
        assert vec[28] == d.hbond_potential

    def test_bit_identical_across_calls(self):
        a = global_descriptors("MKVLL", REG).to_vector()
        b = global_descriptors("MKVLL", REG).to_vector()
        assert a.tobytes() == b.tobytes()

    @given(sequences)
    def test_diversity_bounds(self, seq):
        d = global_descriptors(seq, REG)
        assert 1 <= d.diversity <= 20
        assert d.diversity <= d.length


class TestResidueEncoding:
    def test_minmax_hits_exact_extremes(self):
        table = residue_row_table(REG)
        for col, scale in ((0, REG.polarity), (1, REG.isoelectric_point), (2, REG.hydrophobicity)):
            values = table[:, col]
            assert values.min() == 0.0
            assert values.max() == 1.0
            lo_res = min(scale, key=scale.get)
            assert values[AMINO_ACIDS.index(lo_res)] == 0.0

    def test_structure_one_hot(self):
        table = residue_row_table(REG)
        ss = table[:, 7:10]
        assert ((ss == 0.0) | (ss == 1.0)).all()
        np.testing.assert_array_equal(ss.sum(axis=1), np.ones(20))

    def test_rows_are_injective_over_residue_pairs(self):
        table = residue_row_table(REG)
        for i in range(20):
            for j in range(i + 1, 20):
                assert not np.array_equal(table[i], table[j]), (
                    f"{AMINO_ACIDS[i]} and {AMINO_ACIDS[j]} encode identically"
                )

    def test_rbd_window_weighting(self):
        seq = "".join(AMINO_ACIDS[i % 20] for i in range(600))
        enc = residue_encoding(seq, REG)
        table = residue_row_table(REG)
        unweighted_319 = table[AMINO_ACIDS.index(seq[RBD_START - 1])]
        np.testing.assert_allclose(enc[RBD_START - 1], RBD_WEIGHT * unweighted_319)
        unweighted_318 = table[AMINO_ACIDS.index(seq[RBD_START - 2])]
        np.testing.assert_allclose(enc[RBD_START - 2], unweighted_318)
        # the weight each row carries: 1 outside [RBD_START, RBD_END], RBD_WEIGHT inside
        for pos, weight in ((RBD_START - 1, 1.0), (RBD_START, RBD_WEIGHT), (RBD_END, RBD_WEIGHT),
                            (RBD_END + 1, 1.0)):
            np.testing.assert_array_equal(enc[pos - 1], weight * table[AMINO_ACIDS.index(seq[pos - 1])])

    def test_bounds_after_weighting(self):
        seq = "".join(AMINO_ACIDS[i % 20] for i in range(600))
        m = residue_encoding(seq, REG)
        cont, binary = m[:, :3], m[:, 3:]
        assert cont.min() >= 0.0 and cont.max() <= RBD_WEIGHT
        assert set(np.unique(binary)) <= {0.0, 1.0, RBD_WEIGHT}

    def test_short_sequence_has_no_rbd_weighting(self):
        enc = residue_encoding("MKVLL", REG)
        table = residue_row_table(REG)
        np.testing.assert_array_equal(enc, table[[AMINO_ACIDS.index(aa) for aa in "MKVLL"]])

    def test_row_count_matches_length(self):
        enc = residue_encoding("MKVLL", REG)
        assert enc.shape == (5, 10)

    @pytest.mark.parametrize(
        "length", [1, RBD_START - 1, RBD_START, RBD_START + 1, RBD_END - 1, RBD_END, RBD_END + 1, 1273]
    )
    def test_rbd_window_for_a_sequence_ending_at_each_edge(self, length):
        seq = "".join(AMINO_ACIDS[(7 * i) % 20] for i in range(length))
        enc = residue_encoding(seq, REG)
        unweighted = residue_row_table(REG)[[AMINO_ACIDS.index(aa) for aa in seq]]
        # every table row is nonzero, so exactly the window's rows differ from their unweighted row
        weighted = np.flatnonzero((enc != unweighted).any(axis=1)) + 1
        np.testing.assert_array_equal(weighted, np.arange(RBD_START, min(length, RBD_END) + 1))
        np.testing.assert_array_equal(enc[weighted - 1], RBD_WEIGHT * unweighted[weighted - 1])


# ---------------------------------------------------------------------------
# Reference: the per-residue loops the array implementation replaced. Each
# walks the sequence one residue at a time and validates it itself.

_REF_INDEX = {aa: i for i, aa in enumerate(AMINO_ACIDS)}


def _ref_check(sequence):
    if not sequence:
        raise ValueError("empty sequence")
    bad = set(sequence) - set(AMINO_ACIDS)
    if bad:
        raise ValueError(f"non-canonical residues in sequence: {sorted(bad)}")


def ref_composition(sequence):
    _ref_check(sequence)
    counts = np.zeros(20, dtype=np.float64)
    for aa in sequence:
        counts[_REF_INDEX[aa]] += 1
    return counts / len(sequence)


def ref_mean_scale(sequence, table):
    _ref_check(sequence)
    return sum(table[aa] for aa in sequence) / len(sequence)


def ref_net_charge(sequence, registry):
    _ref_check(sequence)
    ph, pka = 7.4, registry.pka_side_chain
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


def ref_fraction_in(sequence, members):
    _ref_check(sequence)
    return sum(1 for aa in sequence if aa in members) / len(sequence)


def ref_residue_matrix(sequence, registry):
    _ref_check(sequence)
    table = residue_row_table(registry)
    rows = np.array([table[_REF_INDEX[aa]] for aa in sequence])
    weights = np.ones(len(sequence))
    weights[RBD_START - 1 : RBD_END] = RBD_WEIGHT
    return rows * weights[:, None]


def _close(got, want, scale):
    """Equal within 1e-12 relative; `scale` bounds the size of one summed
    term, so a sum that cancels to near zero is judged on its terms."""
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale)


# Short sequences and ones that run past the receptor-binding domain.
oracle_sequences = st.one_of(
    st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=60),
    st.text(alphabet=AMINO_ACIDS, min_size=RBD_END - 5, max_size=RBD_END + 200),
)


class TestAgainstPerResidueReference:
    @given(oracle_sequences)
    @settings(max_examples=60, deadline=None)
    def test_counting_descriptors_are_exact(self, seq):
        d = global_descriptors(seq, REG)
        sets = REG.class_sets
        np.testing.assert_array_equal(d.aac, ref_composition(seq))
        assert d.length == len(seq)
        assert d.diversity == len(set(seq))
        want_ss = [ref_fraction_in(seq, sets[n]) for n in ("helix_class", "strand_class", "coil_class")]
        assert d.ss_fractions.tolist() == want_ss
        assert d.hbond_potential == ref_fraction_in(seq, sets["hbond_capable"])

    @given(oracle_sequences)
    @settings(max_examples=60, deadline=None)
    def test_scale_descriptors_within_1e12(self, seq):
        d = global_descriptors(seq, REG)
        hyd_scale = max(abs(v) for v in REG.hydrophobicity.values())
        pol_scale = max(abs(v) for v in REG.polarity.values())
        want_hyd = ref_mean_scale(seq, REG.hydrophobicity)
        want_pol = ref_mean_scale(seq, REG.polarity)
        assert _close(d.mean_hydrophobicity, want_hyd, hyd_scale)
        assert _close(d.polarity, want_pol, pol_scale)
        assert _close(d.net_charge, ref_net_charge(seq, REG), len(seq))

    @given(oracle_sequences)
    @settings(max_examples=40, deadline=None)
    def test_residue_block_is_exact(self, seq):
        want = ref_residue_matrix(seq, REG)
        np.testing.assert_array_equal(residue_encoding(seq, REG), want)
        head = np.full(GLOBAL_DESCRIPTOR_LENGTH + want.size + 3, np.nan, dtype=np.float32)
        assert write_sequence_features(head, seq, REG) == GLOBAL_DESCRIPTOR_LENGTH + want.size
        want_head = np.concatenate([global_descriptors(seq, REG).to_vector(), want.reshape(-1)])
        np.testing.assert_array_equal(head[: want_head.size], want_head.astype(np.float32))
        assert np.isnan(head[want_head.size :]).all()

    @pytest.mark.parametrize("aa", list(AMINO_ACIDS))
    def test_single_residue_matches_the_registry(self, aa):
        d = global_descriptors(aa, REG)
        sets = REG.class_sets
        np.testing.assert_array_equal(d.aac, ref_composition(aa))
        assert (d.length, d.diversity) == (1, 1)
        assert d.mean_hydrophobicity == REG.hydrophobicity[aa]
        assert d.polarity == REG.polarity[aa]
        assert _close(d.net_charge, ref_net_charge(aa, REG), 1)
        assert d.ss_fractions.tolist() == [float(aa in sets[n]) for n in ("helix_class", "strand_class", "coil_class")]
        assert d.hbond_potential == float(aa in sets["hbond_capable"])
        np.testing.assert_array_equal(residue_encoding(aa, REG), ref_residue_matrix(aa, REG))

    # A sequence that reaches one row into the receptor-binding domain, so the
    # widths below cut the head at the descriptors' end, inside an unweighted
    # row and inside the weighted row.
    _CUT_SEQ = "".join(AMINO_ACIDS[(3 * i) % 20] for i in range(RBD_START))
    _CUT_FULL = GLOBAL_DESCRIPTOR_LENGTH + 10 * RBD_START

    @pytest.mark.parametrize("width", [
        GLOBAL_DESCRIPTOR_LENGTH,
        GLOBAL_DESCRIPTOR_LENGTH + 1,
        GLOBAL_DESCRIPTOR_LENGTH + 9,
        GLOBAL_DESCRIPTOR_LENGTH + 10,
        GLOBAL_DESCRIPTOR_LENGTH + 15,
        _CUT_FULL - 7,
        _CUT_FULL - 1,
        _CUT_FULL,
        _CUT_FULL + 4,
    ])
    def test_write_truncates_the_head_at_any_width(self, width):
        seq = self._CUT_SEQ
        want = np.concatenate([global_descriptors(seq, REG).to_vector(), ref_residue_matrix(seq, REG).reshape(-1)])
        out = np.full(width, np.nan, dtype=np.float32)
        assert write_sequence_features(out, seq, REG) == self._CUT_FULL == want.size
        kept = min(width, want.size)
        np.testing.assert_array_equal(out[:kept], want[:kept].astype(np.float32))
        assert np.isnan(out[kept:]).all()

    # B, J, O, U and Z are IUPAC codes outside the 20 canonical residues.
    @pytest.mark.parametrize(
        "seq", ["", "acd", "Mkv", "AÉ", "É", "AXA", "X", "A-C", "A C", "MKV*", "AB", "J", "OA", "U", "AZ"]
    )
    @pytest.mark.parametrize(
        "fn",
        [
            lambda s: global_descriptors(s, REG),
            lambda s: residue_encoding(s, REG),
            lambda s: write_sequence_features(np.zeros(100, dtype=np.float32), s, REG),
        ],
        ids=["global_descriptors", "residue_encoding", "write_sequence_features"],
    )
    def test_invalid_sequences_refused_as_the_reference_does(self, seq, fn):
        with pytest.raises(ValueError) as want:
            _ref_check(seq)
        with pytest.raises(ValueError) as got:
            fn(seq)
        assert str(got.value) == str(want.value)

    @given(st.text(min_size=1, max_size=40).filter(lambda t: set(t) - set(AMINO_ACIDS)))
    def test_any_non_canonical_character_refused(self, seq):
        with pytest.raises(ValueError, match="non-canonical residues"):
            global_descriptors(seq, REG)
