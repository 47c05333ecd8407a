"""Pauli algebra against dense Kronecker-product oracles."""

import itertools

import numpy as np
import pytest

from heffsolve.pauli import (
    BasisState,
    PauliFormatError,
    PauliString,
    PauliSum,
    classify_terms,
    format_pauli_sum,
    multiply_masks,
    parse_pauli_sum,
    sites,
    string_order,
)

from conftest import (
    add_sums,
    apply_string,
    basis_vector,
    dense_pauli,
    dense_sum,
    multiply_sums,
    pauli_sum,
    random_hermitian_sum,
    string_matrix_element,
    sum_matrix_element,
    weight_of,
)

G1_LABELS = [
    "IIII", "ZIII", "IZII", "IIZI", "IIIZ",
    "ZZII", "ZIZI", "ZIIZ", "IZZI", "IZIZ", "IIZZ",
]
G2_LABELS = ["YXXY", "XXYY", "YYXX", "XYYX"]


def multiply_labels(la: str, lb: str) -> tuple[complex, str]:
    """``(phase, label)`` of the product of two equal-length labels, by
    :func:`multiply_masks`."""
    a, b = PauliString(la), PauliString(lb)
    phase, x, z = multiply_masks(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    return phase, PauliString.from_masks(x, z, len(la)).label


class TestMultiply:
    def test_involution(self):
        phase, product = multiply_labels("X", "X")
        assert phase == 1 and product == "I"

    def test_xy_is_iz(self):
        phase, product = multiply_labels("X", "Y")
        assert phase == 1j and product == "Z"

    def test_zx_times_xz_dense(self):
        phase, product = multiply_labels("ZX", "XZ")
        expected = dense_pauli("ZX") @ dense_pauli("XZ")
        assert np.allclose(phase * dense_pauli(product), expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_against_dense(self, n):
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
        for la, lb in itertools.product(labels, labels):
            phase, product = multiply_labels(la, lb)
            assert phase in (1, -1, 1j, -1j)
            assert np.allclose(
                phase * dense_pauli(product), dense_pauli(la) @ dense_pauli(lb)
            )

    def test_single_op_table_consistent(self):
        for a, b in itertools.product("IXYZ", repeat=2):
            phase, c = multiply_labels(a, b)
            assert np.allclose(phase * dense_pauli(c), dense_pauli(a) @ dense_pauli(b))


class TestApplyString:
    def test_z_phase(self):
        phase, m = apply_string(PauliString("ZIII"), BasisState("1100"))
        assert phase == -1 and m.bits == "1100"

    def test_x_flip(self):
        phase, m = apply_string(PauliString("XIII"), BasisState("0000"))
        assert phase == 1 and m.bits == "1000"

    def test_yxxy_dense(self):
        phase, m = apply_string(PauliString("YXXY"), BasisState("0110"))
        assert m.bits == "1001" and phase == -1
        expected = dense_pauli("YXXY") @ basis_vector(BasisState("0110"))
        assert np.allclose(expected, phase * basis_vector(m))

    def test_exhaustive_dense(self, rng):
        for _ in range(50):
            label = "".join(rng.choice(list("IXYZ"), size=4))
            n = BasisState.from_mask(int(rng.integers(16)), 4)
            phase, m = apply_string(PauliString(label), n)
            assert abs(phase) == 1
            assert np.allclose(dense_pauli(label) @ basis_vector(n), phase * basis_vector(m))


class TestStringMatrixElement:
    def test_identity(self):
        assert string_matrix_element(BasisState("1100"), PauliString("IIII"), BasisState("1100")) == 1

    def test_yxxy(self):
        value = string_matrix_element(BasisState("1001"), PauliString("YXXY"), BasisState("0110"))
        assert value == -1

    def test_flip_strings_have_zero_diagonal(self):
        assert string_matrix_element(BasisState("1100"), PauliString("YXXY"), BasisState("1100")) == 0

    def test_discreteness_n2_exhaustive(self):
        allowed = {0, 1, -1, 1j, -1j}
        for label in ("".join(p) for p in itertools.product("IXYZ", repeat=2)):
            for i, j in itertools.product(range(4), range(4)):
                value = string_matrix_element(
                    BasisState.from_mask(i, 2), PauliString(label), BasisState.from_mask(j, 2)
                )
                assert value in allowed
                assert value.real == int(value.real) and value.imag == int(value.imag)

    def test_hermiticity_of_strings(self, rng):
        for _ in range(100):
            label = "".join(rng.choice(list("IXYZ"), size=3))
            m = BasisState.from_mask(int(rng.integers(8)), 3)
            n = BasisState.from_mask(int(rng.integers(8)), 3)
            forward = string_matrix_element(m, PauliString(label), n)
            backward = string_matrix_element(n, PauliString(label), m)
            assert forward == backward.conjugate()

    def test_exactly_one_image_state(self):
        h = PauliString("XZYI")
        n = BasisState("0101")
        nonzero = [
            m for m in range(16)
            if string_matrix_element(BasisState.from_mask(m, 4), h, n) != 0
        ]
        assert len(nonzero) == 1


class TestSumMatrixElement:
    def test_z_sum_diagonal(self):
        hamiltonian = pauli_sum([(0.5, "ZIII"), (0.25, "IZII")])
        n = BasisState("1100")
        assert sum_matrix_element(n, hamiltonian, n) == pytest.approx(-0.75)

    def test_lone_string(self):
        hamiltonian = pauli_sum([(1.0, "YXXY")])
        value = sum_matrix_element(BasisState("1001"), hamiltonian, BasisState("0110"))
        assert value == pytest.approx(-1.0)

    def test_diagonal_sums_have_zero_offdiagonal(self):
        hamiltonian = pauli_sum([(0.3, l) for l in G1_LABELS])
        for i, j in itertools.combinations(range(16), 2):
            value = sum_matrix_element(
                BasisState.from_mask(i, 4), hamiltonian, BasisState.from_mask(j, 4)
            )
            assert value == 0

    @pytest.mark.parametrize("n_qubits", [2, 4, 8])
    def test_against_dense(self, rng, n_qubits):
        hamiltonian = random_hermitian_sum(rng, n_qubits, 12)
        matrix = dense_sum(hamiltonian)
        for _ in range(40):
            i = int(rng.integers(1 << n_qubits))
            j = int(rng.integers(1 << n_qubits))
            value = sum_matrix_element(
                BasisState.from_mask(i, n_qubits), hamiltonian, BasisState.from_mask(j, n_qubits)
            )
            assert value == pytest.approx(matrix[i, j], abs=1e-12)


class TestClassify:
    def test_h2_groups(self):
        hamiltonian = pauli_sum([(0.1, l) for l in G1_LABELS] + [(0.2, l) for l in G2_LABELS])
        diagonal, offdiagonal = classify_terms(hamiltonian)
        assert sorted(s.label for _, s in diagonal) == sorted(G1_LABELS)
        assert sorted(s.label for _, s in offdiagonal) == sorted(G2_LABELS)

    def test_empty(self):
        diagonal, offdiagonal = classify_terms(PauliSum((), 3))
        assert diagonal.num_terms == 0 and offdiagonal.num_terms == 0

    def test_parts_sum_back(self, rng):
        hamiltonian = random_hermitian_sum(rng, 3, 10)
        diagonal, offdiagonal = classify_terms(hamiltonian)
        assert np.allclose(dense_sum(add_sums(diagonal, offdiagonal)), dense_sum(hamiltonian))

    def test_offdiagonal_strings_have_zero_diagonal(self):
        for label in G2_LABELS:
            for m in range(16):
                state = BasisState.from_mask(m, 4)
                assert string_matrix_element(state, PauliString(label), state) == 0


class TestPauliSumType:
    def test_merge_and_prune(self):
        merged = pauli_sum([(0.5, "XZ"), (0.5, "XZ"), (1e-15, "ZZ")])
        assert merged.num_terms == 1
        assert weight_of(merged, "XZ") == 1.0

    def test_cancellation_drops_term(self):
        cancelled = pauli_sum([(0.5, "XZ"), (-0.5, "XZ")])
        assert cancelled.num_terms == 0

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
    def test_non_finite_weights_rejected(self, weight):
        # abs(NaN) > WEIGHT_TOLERANCE is false, so a NaN weight would drop silently
        with pytest.raises(ValueError, match="finite"):
            pauli_sum([(0.5, "ZI"), (weight, "IZ")])
        with pytest.raises(ValueError, match="finite"):
            PauliSum.from_masks([0], [1], [weight], 2)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            PauliSum([(1.0, PauliString("XX")), (1.0, PauliString("X"))])

    def test_hermiticity_check(self):
        real = pauli_sum([(1.0, "X")])
        assert real.real_weights() is real
        with pytest.raises(ValueError, match="not Hermitian"):
            pauli_sum([(1j, "X")]).real_weights()

    def test_locality(self):
        hamiltonian = pauli_sum([(1.0, "IXYI"), (1.0, "ZZZZ")])
        assert hamiltonian.max_locality == 4

    def test_product_against_dense(self, rng):
        a = random_hermitian_sum(rng, 3, 5)
        b = random_hermitian_sum(rng, 3, 5)
        assert np.allclose(dense_sum(multiply_sums(a, b)), dense_sum(a) @ dense_sum(b), atol=1e-12)


class TestFlipGroups:
    def test_groups_partition_the_terms_by_flip(self, rng):
        # spans ascend by x_mask and cover every term once, in term order
        # within a group; each term carries its z_mask, phased weight and Y parity
        for _ in range(20):
            hamiltonian = add_sums(random_hermitian_sum(rng, 5, 30), pauli_sum(
                [(complex(rng.normal(), rng.normal()), "".join(rng.choice(list("IXYZ"), 5)))
                 for _ in range(10)]
            ))
            groups = hamiltonian.groups
            assert list(groups.spans) == sorted({s.x_mask for _, s in hamiltonian})
            seen = []
            for x_mask, span in groups.spans.items():
                members = groups.index[span].tolist()
                assert members == sorted(members)
                seen += members
                for k, z, phased, odd in zip(members, *(a[span].tolist() for a in (
                        groups.z, groups.phased, groups.odd))):
                    w, s = hamiltonian.terms[k]
                    assert (s.x_mask, s.z_mask) == (x_mask, z)
                    assert phased == w * 1j ** (s.y_count % 4)
                    assert odd == s.y_count % 2
            assert sorted(seen) == list(range(hamiltonian.num_terms))
            assert groups.span(1 << 5) == slice(0, 0)

    def test_a_sum_groups_once(self, rng):
        hamiltonian = random_hermitian_sum(rng, 4, 12)
        assert hamiltonian.groups is hamiltonian.groups
        with pytest.raises(ValueError):
            hamiltonian.x[0] = 1

    def test_masks_and_labels_round_trip(self, rng):
        hamiltonian = random_hermitian_sum(rng, 6, 20)
        again = PauliSum.from_masks(hamiltonian.x, hamiltonian.z, hamiltonian.w, 6)
        assert [(w, s.label) for w, s in again] == [(w, s.label) for w, s in hamiltonian]
        assert [(w, x, z) for w, x, z in again.triples()] == [
            (w, s.x_mask, s.z_mask) for w, s in hamiltonian
        ]


class TestTextFormat:
    def test_round_trip(self, rng):
        hamiltonian = random_hermitian_sum(rng, 4, 8)
        again = parse_pauli_sum(format_pauli_sum(hamiltonian))
        assert {s.label: w for w, s in again} == pytest.approx(
            {s.label: w for w, s in hamiltonian}
        )

    def test_comments_and_blanks(self):
        text = "# header\n\n0.5 0.0 ZI  # inline\n-0.25 0.0 IZ\n"
        hamiltonian = parse_pauli_sum(text)
        assert hamiltonian.num_terms == 2
        assert hamiltonian.qubit_count == 2

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("0.5 ZI\n", 1),
            ("0.5 x ZI\n", 1),
            ("0.5 0.0 ZQ\n", 1),
            ("0.5 0.0 ZI\n0.5 0.0 ZII\n", 2),
            ("# only comments\n", 2),
            ("0.5 0.0 " + "Z" * 65 + "\n", 1),
            ("0.5 0.0 IZ\nnan 0.0 ZI\n", 2),          # PauliSum dropped the NaN weight
            ("0.5 inf ZI\n", 1),
            ("9e307 0.0 ZI\n9e307 0.0 ZI\n", 3),      # finite weights whose sum overflows
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(PauliFormatError, match=f"line {lineno}"):
            parse_pauli_sum(text)


class TestBasisState:
    def test_mask_convention(self):
        state = BasisState("1100")
        assert state.mask == 0b0011
        assert state.particle_number == 2
        assert tuple(sites(state.mask)) == (0, 1)

    def test_round_trips(self):
        assert BasisState.from_mask(0b0011, 4).bits == "1100"
        assert BasisState.from_mask(1 << 0 | 1 << 3, 4).bits == "1001"

    def test_lex_order_matches_string_order(self):
        states = [BasisState(b) for b in ("0011", "0101", "1100", "1010")]
        keys = string_order(np.array([s.mask for s in states], dtype=np.uint64))
        by_lex = [states[k] for k in np.argsort(keys)]
        assert [s.bits for s in by_lex] == sorted(s.bits for s in states)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            BasisState("10x0")
