"""Jordan-Wigner map against an independent fermionic-ladder oracle."""

import itertools

import numpy as np
import pytest

from heffsolve.fermion import (
    FermionFormatError,
    FermionHamiltonian,
    FermionTerm,
    check_particle_conservation,
    jw_ladder,
    jw_transform,
    parse_fermion_hamiltonian,
)
from heffsolve.pauli import PauliFormatError, PauliSum, parse_pauli_sum

from conftest import (
    dense_fermion,
    dense_sum,
    jw_transform_by_addition,
    ladder_matrix,
    multiply_sums,
    pauli_sum,
    random_fermion_terms,
    weight_of,
)


def jw_ladder_dense(mode, dagger, n):
    return dense_sum(jw_ladder(mode, dagger, n))


class TestJwLadder:
    def test_creation_on_first_mode(self):
        mapped = jw_ladder(0, True, 2)
        assert weight_of(mapped, "XI") == 0.5
        assert weight_of(mapped, "YI") == -0.5j

    def test_annihilation_with_tail(self):
        mapped = jw_ladder(1, False, 2)
        assert weight_of(mapped, "ZX") == 0.5
        assert weight_of(mapped, "ZY") == 0.5j

    def test_number_operator_convention(self):
        # a+ a must be the projector onto |1> under the occupied-is-1 convention
        number = multiply_sums(jw_ladder(0, True, 1), jw_ladder(0, False, 1))
        dense = dense_sum(number)
        assert np.allclose(dense, np.diag([0.0, 1.0]))
        assert weight_of(number, "I") == pytest.approx(0.5)
        assert weight_of(number, "Z") == pytest.approx(-0.5)

    def test_matches_ladder_oracle(self):
        for mode, dagger in itertools.product(range(4), (False, True)):
            assert np.allclose(
                jw_ladder_dense(mode, dagger, 4), ladder_matrix(mode, dagger, 4), atol=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            jw_ladder(3, True, 3)


class TestAnticommutation:
    def test_mixed_pairs(self):
        n = 4
        for i, j in itertools.product(range(n), range(n)):
            a_i = jw_ladder_dense(i, False, n)
            adag_j = jw_ladder_dense(j, True, n)
            anticommutator = a_i @ adag_j + adag_j @ a_i
            expected = np.eye(1 << n) if i == j else np.zeros((1 << n,) * 2)
            assert np.allclose(anticommutator, expected, atol=1e-12)

    def test_same_kind_pairs_vanish(self):
        n = 4
        for dagger in (False, True):
            for i, j in itertools.product(range(n), range(n)):
                a = jw_ladder_dense(i, dagger, n)
                b = jw_ladder_dense(j, dagger, n)
                assert np.allclose(a @ b + b @ a, 0.0, atol=1e-12)


class TestJwTransform:
    def test_single_number_term(self):
        hamiltonian = FermionHamiltonian((FermionTerm(1.0, ((0, True), (0, False))),), 1)
        mapped = jw_transform(hamiltonian)
        assert weight_of(mapped, "I") == pytest.approx(0.5)
        assert weight_of(mapped, "Z") == pytest.approx(-0.5)

    def test_hopping_pair(self):
        hamiltonian = FermionHamiltonian(
            (
                FermionTerm(1.0, ((0, True), (1, False))),
                FermionTerm(1.0, ((1, True), (0, False))),
            ),
            2,
        )
        mapped = jw_transform(hamiltonian)
        assert np.allclose(dense_sum(mapped), dense_fermion(hamiltonian), atol=1e-12)
        assert abs(weight_of(mapped, "XX")) == pytest.approx(0.5)
        assert abs(weight_of(mapped, "YY")) == pytest.approx(0.5)

    def test_canonical_anticommutator_sums_to_identity(self):
        hamiltonian = FermionHamiltonian(
            (
                FermionTerm(1.0, ((0, False), (0, True))),
                FermionTerm(1.0, ((0, True), (0, False))),
            ),
            1,
        )
        mapped = jw_transform(hamiltonian)
        assert mapped.num_terms == 1
        assert weight_of(mapped, "I") == pytest.approx(1.0)

    @pytest.mark.parametrize("num_modes", [2, 3, 4, 5])
    def test_matches_fermionic_oracle(self, rng, num_modes):
        for _ in range(5):
            terms = random_fermion_terms(rng, num_modes, 3)
            hamiltonian = FermionHamiltonian(tuple(terms), num_modes, constant=float(rng.normal()))
            assert np.allclose(
                dense_sum(jw_transform(hamiltonian)), dense_fermion(hamiltonian), atol=1e-10
            )

    def test_spectrum_preserved(self, rng):
        terms = random_fermion_terms(rng, 6, 4)
        hamiltonian = FermionHamiltonian(tuple(terms), 6)
        mapped = jw_transform(hamiltonian)
        jw_eigs = np.linalg.eigvalsh(dense_sum(mapped))
        direct_eigs = np.linalg.eigvalsh(dense_fermion(hamiltonian))
        assert np.allclose(jw_eigs, direct_eigs, atol=1e-10)

    def test_hermitian_output(self, rng):
        terms = random_fermion_terms(rng, 4, 4)
        mapped = jw_transform(FermionHamiltonian(tuple(terms), 4))
        assert np.abs(mapped.w.imag).max(initial=0.0) <= 1e-12

    def test_non_hermitian_rejected(self):
        lopsided = FermionHamiltonian(
            (FermionTerm(1.0, ((0, True), (1, False))),), 2
        )
        with pytest.raises(ValueError, match="not Hermitian"):
            jw_transform(lopsided)

    def test_constant_becomes_identity_weight(self):
        hamiltonian = FermionHamiltonian(
            (FermionTerm(1.0, ((0, True), (0, False))),), 2, constant=0.25
        )
        mapped = jw_transform(hamiltonian)
        assert weight_of(mapped, "II") == pytest.approx(0.75)

    @staticmethod
    def _terms_and_bits(mapped):
        weights = np.array([w for w, _ in mapped], dtype=complex)
        return [s.label for _, s in mapped], weights.view(np.uint64).tolist()

    def test_string_that_cancels_reappears_last(self):
        number = lambda mode, c: FermionTerm(c, ((mode, True), (mode, False)))
        hamiltonian = FermionHamiltonian(
            (number(0, 1.0), number(1, 0.3), number(0, -1.0), number(0, 0.5)), 2
        )
        mapped = jw_transform(hamiltonian)
        assert [s.label for _, s in mapped] == ["II", "IZ", "ZI"]
        assert self._terms_and_bits(mapped) == self._terms_and_bits(
            jw_transform_by_addition(hamiltonian)
        )

    @pytest.mark.parametrize("num_modes", [2, 4, 6])
    def test_matches_repeated_addition_bit_for_bit(self, rng, num_modes):
        cancelled = 0
        for _ in range(10):
            # Hermitian blocks: a number term, or a term with its conjugate
            blocks = [random_fermion_terms(rng, num_modes, 1) for _ in range(5)]
            i, j = (int(v) for v in rng.choice(num_modes, 2, replace=False))
            c = complex(rng.normal(), rng.normal())
            blocks.append([FermionTerm(c, ((i, True), (j, False))),
                           FermionTerm(c.conjugate(), ((j, True), (i, False)))])
            # exact and near cancellations, then some of the same blocks again
            undo = [[FermionTerm(-t.coefficient * (1 - 1e-14 * int(rng.integers(2))), t.factors)
                     for t in block] for block in blocks if rng.random() < 0.5]
            again = [block for block in blocks if rng.random() < 0.3]
            terms = [t for block in blocks + undo + again for t in block]
            hamiltonian = FermionHamiltonian(tuple(terms), num_modes, constant=float(rng.normal()))
            mapped = jw_transform(hamiltonian)
            reference = jw_transform_by_addition(hamiltonian)
            assert self._terms_and_bits(mapped) == self._terms_and_bits(reference)
            cancelled += len(undo) > len(again)
        assert cancelled


class TestParticleConservation:
    def test_mapped_hamiltonian_conserves(self, rng):
        terms = random_fermion_terms(rng, 5, 4)
        mapped = jw_transform(FermionHamiltonian(tuple(terms), 5))
        assert check_particle_conservation(mapped, trials=30, seed=1)

    def test_lone_x_violates(self):
        assert not check_particle_conservation(
            pauli_sum([(1.0, "XIII")]), trials=5, seed=1
        )

    @pytest.mark.parametrize("label", ["IIIY", "XXXI", "Y" + "I" * 62, "I" * 63 + "X"])
    def test_lone_odd_flip_violates(self, label):
        # up to the 64 qubits a uint64 occupation mask holds
        assert not check_particle_conservation(pauli_sum([(0.5, label)]))

    def test_64_qubit_hopping_conserves(self):
        chain = "Z" * 62
        hopping = pauli_sum([(-0.25, f"X{chain}X"), (-0.25, f"Y{chain}Y")])
        assert check_particle_conservation(hopping)

    def test_empty_sum(self):
        assert check_particle_conservation(PauliSum([], [], [], 4))

    def test_type_invariant_enforced(self):
        with pytest.raises(ValueError, match="conserve"):
            FermionHamiltonian((FermionTerm(1.0, ((0, True), (1, True))),), 2)
        with pytest.raises(ValueError, match="factors"):
            FermionHamiltonian((FermionTerm(1.0, ((0, True),)),), 2)
        with pytest.raises(ValueError, match="out of range"):
            FermionHamiltonian((FermionTerm(1.0, ((5, True), (5, False))),), 2)


class TestFermionTextFormat:
    def test_round_trip(self):
        hamiltonian = FermionHamiltonian(
            (
                FermionTerm(0.5, ((1, True), (0, True), (2, False), (3, False))),
                FermionTerm(-1.2, ((0, True), (0, False))),
            ),
            4,
            constant=0.7137,
        )
        again = parse_fermion_hamiltonian(
            "modes 4\nconstant 0.7137\n0.5 0 1^ 0^ 2 3\n-1.2 0 0^ 0\n"
        )
        assert again.mode_count == 4
        assert again.constant == pytest.approx(0.7137)
        assert again.terms == hamiltonian.terms

    def test_example_line(self):
        parsed = parse_fermion_hamiltonian("modes 4\n0.5 0.0 1^ 0^ 2 3\n")
        assert parsed.terms[0].factors == ((1, True), (0, True), (2, False), (3, False))

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("0.5 0.0 0^ 0\n", 1),                      # term before header
            ("modes 4\n0.5 0.0 0* 0\n", 2),             # malformed factor token
            ("modes 4\n0.5 0^ 0\n", 2),                 # bad coefficient
            ("modes x\n", 1),                           # bad header
            ("modes 4\nnan 0.0 0^ 0\n0.5 0.0 1^ 1\n", 2),  # PauliSum dropped the NaN weight
            ("modes 4\n0.5 -inf 1^ 1\n", 2),              # non-finite imaginary part
            ("modes 4\nconstant nan\n", 2),               # non-finite constant
            ("modes 4\ninf 0.0 0^ 1\ninf 0.0 1^ 0\n", 2),  # the pair merged to NaN
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(FermionFormatError, match=f"line {lineno}"):
            parse_fermion_hamiltonian(text)

    def test_missing_header(self):
        with pytest.raises(FermionFormatError, match="modes"):
            parse_fermion_hamiltonian("# nothing\n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("modes 4\n1 0 \u00b2^ 0\n", 2),              # superscript two: isdigit, but no int
            ("modes \u00b2\n", 1),
            ("modes 4\n1 0 0^ \u0663\n", 2),              # Arabic-Indic three: not ASCII
        ],
    )
    def test_a_non_ascii_digit_is_a_format_error(self, text, lineno):
        with pytest.raises(FermionFormatError, match=f"line {lineno}"):
            parse_fermion_hamiltonian(text)

    def test_parsers_raise_only_their_own_format_error(self):
        # arbitrary token lines, unicode digits included, never escape as a bare error
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        words = ["modes", "constant", "#", "^", "0", "3", "2^", "-0.5", "1e3", "nan", "inf",
                 "\u00b2", "\u00b2^", "\u0663", "1\u00b3", "IXYZ", "XY", "ZI", "Y" * 65]
        token = st.one_of(st.sampled_from(words), st.text("0123456789^.-+eIXYZ#\u00b2\u0663", max_size=5))
        lines = st.lists(st.lists(token, max_size=6).map(" ".join), max_size=6).map("\n".join)

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @hypothesis.given(lines)
        def check(text):
            for parse, error in ((parse_fermion_hamiltonian, FermionFormatError),
                                 (parse_pauli_sum, PauliFormatError)):
                try:
                    parse(text)
                except error:
                    pass

        check()
