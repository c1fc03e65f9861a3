"""Fermion Fock space: operator algebra, coherent states, displacement."""

import numpy as np
import pytest

from cohstab import kernel
from cohstab.errors import (
    NonTerminatingSeries,
    NotALadder,
    NotOddLinear,
    VacuumAmplitudeZero,
)
from cohstab.fermion import (
    _BASIS_MUL,
    _PARITY,
    FermionOperator,
    FermionState,
    _compose_coeff_arrays,
    adjoint,
    anticommutator,
    apply,
    commutator,
    compose,
    exp_operator,
    extract_eigenvalue,
    inner_product,
    make_coherent,
    make_displacement,
)
from cohstab.grassmann import GeneratorSet, Multivector, berezin_pair, random_multivector


@pytest.fixture
def ops(gens1):
    return (
        FermionOperator.identity(gens1),
        FermionOperator.annihilator(gens1),
        FermionOperator.creator(gens1),
        FermionOperator.number(gens1),
    )


def test_fermion_algebra_relations(ops):
    ident, b, bd, n = ops
    assert (anticommutator(b, bd) - ident).sup_norm() == 0.0
    assert compose(b, b).sup_norm() == 0.0
    assert compose(bd, bd).sup_norm() == 0.0
    assert (compose(b, bd) - (ident - n)).sup_norm() == 0.0
    assert (compose(n, bd) - bd).sup_norm() == 0.0
    assert (compose(b, n) - b).sup_norm() == 0.0
    assert (compose(n, n) - n).sup_norm() == 0.0


def test_odd_coefficient_passing_sign(gens1, ops):
    # b (zeta b+) = -zeta (I - b+b)
    ident, b, bd, n = ops
    zeta = gens1.gen("zeta")
    lhs = compose(b, zeta * bd)
    rhs = (-zeta) * (ident - n)
    assert lhs.isclose(rhs, 0.0)


def test_scalar_multiple_of_b_commutes_with_b(gens1, ops):
    _, b, _, _ = ops
    assert commutator(b, 0.7j * b).sup_norm() == 0.0


def test_compose_associative_random(gens1, rng):
    for _ in range(10):
        o1 = FermionOperator(gens1, *(random_multivector(gens1, rng) for _ in range(4)))
        o2 = FermionOperator(gens1, *(random_multivector(gens1, rng) for _ in range(4)))
        o3 = FermionOperator(gens1, *(random_multivector(gens1, rng) for _ in range(4)))
        lhs = compose(compose(o1, o2), o3)
        rhs = compose(o1, compose(o2, o3))
        assert lhs.isclose(rhs, 1e-11)


def awkward_multivector(rng, gens) -> Multivector:
    """Coefficients whose parts are normal, +-0.0 or subnormal."""
    parts = rng.standard_normal((2, gens.dim))
    draw = rng.random((2, gens.dim))
    parts[draw < 0.3] = 0.0
    parts[(draw >= 0.3) & (draw < 0.45)] *= 1e-310
    parts[rng.random((2, gens.dim)) < 0.5] *= -1.0
    coeffs = np.empty(gens.dim, dtype=np.complex128)
    coeffs.real, coeffs.imag = parts  # no +0.0 from 1j*-0.0
    return Multivector(gens, coeffs)


@pytest.mark.parametrize("n_pairs", [1, 2, 4], ids=["c4", "c16", "c256"])
def test_apply_matches_the_multivector_formula_bitwise(n_pairs):
    # the formula apply had before it took the rows form that the dense
    # Schrödinger RHS shares with it
    rng = np.random.default_rng(n_pairs)
    gens = GeneratorSet.from_pairs(("zeta", "eta", "chi", "xi")[:n_pairs])
    for _ in range(50 if n_pairs < 4 else 10):
        o = FermionOperator(gens, *(awkward_multivector(rng, gens) for _ in range(4)))
        s = FermionState(gens, awkward_multivector(rng, gens), awkward_multivector(rng, gens))
        psi0 = o.c_i * s.psi0 + o.c_minus * s.psi1.grade_involution()
        psi1 = o.c_i * s.psi1 + o.c_n * s.psi1 + o.c_plus * s.psi0.grade_involution()
        got = apply(o, s)
        for g, w in ((got.psi0, psi0), (got.psi1, psi1)):
            assert np.array_equal(g.coeffs.view(np.uint64), w.coeffs.view(np.uint64))


def test_apply_factors_through_compose(gens1, rng):
    for _ in range(10):
        o1 = FermionOperator(gens1, *(random_multivector(gens1, rng) for _ in range(4)))
        o2 = FermionOperator(gens1, *(random_multivector(gens1, rng) for _ in range(4)))
        s = FermionState(gens1, random_multivector(gens1, rng),
                         random_multivector(gens1, rng))
        assert apply(compose(o1, o2), s).isclose(apply(o1, apply(o2, s)), 1e-11)


# -- adjoint ---------------------------------------------------------------------


def test_hermitian_combination_is_selfadjoint(gens1, ops):
    ident, b, bd, n = ops
    f = 0.3 - 0.4j
    h = 1.5 * n + f * bd + np.conj(f) * b + 0.2 * ident
    assert h.is_selfadjoint(0.0)


def test_adjoint_of_odd_coefficient_term(gens1, ops):
    _, b, bd, _ = ops
    eta = gens1.gen("zeta")  # any odd degree-one element
    lhs = adjoint(eta * bd)
    rhs = (-eta.conjugate()) * b
    assert lhs.isclose(rhs, 0.0)


def test_grassmann_forced_hamiltonian_selfadjoint(gens2):
    ident = FermionOperator.identity(gens2)
    b = FermionOperator.annihilator(gens2)
    bd = FermionOperator.creator(gens2)
    n = FermionOperator.number(gens2)
    eta = (0.4 - 0.1j) * gens2.gen("eta")
    h = 1.0 * n + eta * bd - eta.conjugate() * b + 0.1 * ident
    assert h.is_selfadjoint(0.0)


def test_adjoint_involution_and_antihomomorphism(gens2, rng):
    for _ in range(10):
        o1 = FermionOperator(gens2, *(random_multivector(gens2, rng) for _ in range(4)))
        o2 = FermionOperator(gens2, *(random_multivector(gens2, rng) for _ in range(4)))
        assert adjoint(adjoint(o1)).isclose(o1, 1e-13)
        assert adjoint(compose(o1, o2)).isclose(
            compose(adjoint(o2), adjoint(o1)), 1e-11
        )


# -- states and coherent states ---------------------------------------------------


def test_ladder_action_on_basis(gens1, ops):
    _, b, bd, _ = ops
    vac = FermionState.vacuum(gens1)
    one = FermionState.one_fermion(gens1)
    assert apply(b, vac).sup_norm() == 0.0
    assert apply(bd, one).sup_norm() == 0.0
    assert apply(bd, vac).isclose(one, 0.0)


def test_coherent_state_closed_form(gens1):
    zeta = gens1.gen("zeta")
    cs = make_coherent(zeta)
    n = 1 - 0.5 * (zeta.conjugate() * zeta)
    assert cs.psi0.isclose(n, 0.0)
    assert cs.psi1.isclose(-zeta, 0.0)


def test_coherent_state_eigen_equation(gens1, ops):
    _, b, _, _ = ops
    zeta = (0.3 - 0.8j) * gens1.gen("zeta")
    cs = make_coherent(zeta)
    assert (apply(b, cs) - zeta * cs).sup_norm() <= 1e-15


def test_coherent_state_unit_norm(gens1):
    zeta = (0.9 + 0.2j) * gens1.gen("zeta")
    cs = make_coherent(zeta)
    assert (inner_product(cs, cs) - 1).sup_norm() == 0.0


def test_zero_eigenvalue_gives_vacuum(gens1):
    assert make_coherent(gens1.zero()).isclose(FermionState.vacuum(gens1), 0.0)


def test_coherent_state_with_mixed_eigenvalue(gens2):
    # eigenvalue spanning two generator pairs
    zeta = (0.6 - 0.2j) * gens2.gen("zeta") + 0.4j * gens2.gen("eta")
    cs = make_coherent(zeta)
    b = FermionOperator.annihilator(gens2)
    assert (apply(b, cs) - zeta * cs).sup_norm() <= 1e-15
    assert (inner_product(cs, cs) - 1).sup_norm() <= 1e-15
    lam, res = extract_eigenvalue(cs)
    assert lam.isclose(zeta, 1e-14)
    assert res <= 1e-14
    disp = apply(make_displacement(zeta, b), FermionState.vacuum(gens2))
    assert disp.isclose(cs, 1e-14)


def test_make_coherent_rejects_even_input(gens1):
    with pytest.raises(NotOddLinear):
        make_coherent(gens1.one())


def test_inner_product_conjugate_symmetry(gens1, rng):
    s1 = FermionState(gens1, random_multivector(gens1, rng),
                      random_multivector(gens1, rng))
    s2 = FermionState(gens1, random_multivector(gens1, rng),
                      random_multivector(gens1, rng))
    assert inner_product(s1, s2).isclose(inner_product(s2, s1).conjugate(), 1e-13)


def test_vacuum_inner_product(gens1):
    vac = FermionState.vacuum(gens1)
    assert (inner_product(vac, vac) - 1).sup_norm() == 0.0


def test_berezin_completeness_matrix(gens1):
    cs = make_coherent(gens1.gen("zeta"))
    basis = [FermionState.vacuum(gens1), FermionState.one_fermion(gens1)]
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            entry = berezin_pair(
                inner_product(bi, cs) * inner_product(bj, cs).conjugate(), 0
            )
            want = 1.0 if i == j else 0.0
            assert (entry - want).sup_norm() <= 1e-15


# -- displacement ---------------------------------------------------------------


def test_exp_of_zero_is_identity(gens1):
    assert exp_operator(FermionOperator.zero(gens1)).isclose(
        FermionOperator.identity(gens1), 0.0
    )


def test_displacement_creates_coherent_state(gens1, ops):
    _, b, _, _ = ops
    zeta = gens1.gen("zeta")
    d = make_displacement(zeta, b)
    assert apply(d, FermionState.vacuum(gens1)).isclose(make_coherent(zeta), 1e-15)


def test_displacement_unitary(gens1, ops):
    ident, b, _, _ = ops
    d = make_displacement((0.5 + 0.5j) * gens1.gen("zeta"), b)
    assert compose(d, adjoint(d)).isclose(ident, 1e-14)


def test_displacement_conjugation_identities(gens1, ops):
    ident, b, _, _ = ops
    zeta = gens1.gen("zeta")
    zeta_op = FermionOperator.scaled_identity(zeta)
    d = make_displacement(zeta, b)
    dd = adjoint(d)
    assert compose(compose(d, b), dd).isclose(b - zeta_op, 1e-14)
    assert compose(compose(dd, b), d).isclose(b + zeta_op, 1e-14)


def test_rotated_ladder_displacement(gens1, ops):
    ident, b, _, _ = ops
    d = make_displacement(gens1.gen("zeta"), np.exp(0.7j) * b)
    assert compose(d, adjoint(d)).isclose(ident, 1e-14)


def test_make_displacement_rejects_non_ladder(gens1, ops):
    _, b, _, n = ops
    with pytest.raises(NotALadder):
        make_displacement(gens1.gen("zeta"), 2.0 * b)
    with pytest.raises(NotALadder):
        make_displacement(gens1.gen("zeta"), n)


def test_exp_operator_scalar_identity_part(gens1):
    op = FermionOperator.scaled_identity(gens1.scalar(0.3 - 0.2j))
    want = complex(np.exp(0.3 - 0.2j)) * FermionOperator.identity(gens1)
    assert exp_operator(op).isclose(want, 1e-15)


def test_exp_operator_refuses_scalar_number_part(gens1, ops):
    _, _, _, n = ops
    with pytest.raises(NonTerminatingSeries):
        exp_operator(1.0 * n)


# -- eigenvalue extraction --------------------------------------------------------


def test_extract_from_coherent_state(gens1):
    zeta = (0.4 + 0.1j) * gens1.gen("zeta")
    lam, res = extract_eigenvalue(make_coherent(zeta))
    assert lam.isclose(zeta, 1e-14)
    assert res <= 1e-14


def test_extract_from_vacuum(gens1):
    lam, res = extract_eigenvalue(FermionState.vacuum(gens1))
    assert lam.sup_norm() == 0.0
    assert res == 0.0


def test_extract_from_superposition(gens1):
    s = FermionState(gens1, gens1.one(), gens1.one())
    lam, res = extract_eigenvalue(s)
    assert abs(res - 0.5) <= 1e-14


def test_extract_requires_vacuum_body(gens1):
    with pytest.raises(VacuumAmplitudeZero):
        extract_eigenvalue(FermionState.one_fermion(gens1))


def test_operator_generator_sets_must_match(gens1, gens2):
    from cohstab.errors import MismatchedGenerators

    with pytest.raises(MismatchedGenerators):
        compose(FermionOperator.annihilator(gens1),
                FermionOperator.creator(gens2))
    with pytest.raises(MismatchedGenerators):
        apply(FermionOperator.annihilator(gens1), FermionState.vacuum(gens2))
    with pytest.raises(MismatchedGenerators):
        inner_product(FermionState.vacuum(gens1), FermionState.vacuum(gens2))


# -- NaN fails every tolerance gate closed ----------------------------------------


def _nan_scalar(gens):
    return gens.scalar(complex(np.nan, 0.0))


def test_state_with_nan_amplitude_is_not_close(gens1):
    # the NaN sits in psi1, after psi0's finite sup norm
    vac = FermionState.vacuum(gens1)
    bad = FermionState(gens1, gens1.one(), _nan_scalar(gens1))
    assert np.isnan(bad.sup_norm())
    assert not bad.isclose(vac)


def test_operator_with_nan_coefficient_is_not_selfadjoint(gens1):
    z = gens1.zero()
    op = FermionOperator(gens1, z, z, z, _nan_scalar(gens1))  # NaN on b†b
    assert np.isnan(op.sup_norm())
    assert not op.is_selfadjoint()


def test_make_displacement_rejects_nan_ladder(gens1):
    z = gens1.zero()
    ladder = FermionOperator(gens1, z, _nan_scalar(gens1), z, z)
    with pytest.raises(NotALadder):
        make_displacement(gens1.gen("zeta"), ladder)


def test_extract_refuses_nan_vacuum_body(gens1):
    s = FermionState(gens1, _nan_scalar(gens1), gens1.zero())
    with pytest.raises(VacuumAmplitudeZero):
        extract_eigenvalue(s)


def test_exp_operator_refuses_nan_body(gens1):
    z = gens1.zero()
    with pytest.raises(NonTerminatingSeries):
        exp_operator(FermionOperator(gens1, z, _nan_scalar(gens1), z, z))


# -- the slot-pair composition against a per-row loop ------------------------------


def _compose_reference(c1s, c2s, n_gen):
    """Row by row, the non-zero slot pairs in _BASIS_MUL order, each slot
    summing its products in pair order."""
    gsigns = kernel.tables.parity_signs(n_gen)
    c1s = np.asarray(c1s)
    out = np.zeros(c1s.shape, dtype=np.complex128)
    rows = out.reshape(-1, 4, 1 << n_gen)
    lefts, rights, slots = [], [], []
    for row, c1r, c2r in zip(rows, c1s.reshape(rows.shape),
                             np.asarray(c2s).reshape(rows.shape)):
        for i in range(4):
            c1 = c1r[i]
            if not np.any(c1):
                continue
            for j in range(4):
                targets = _BASIS_MUL.get((i, j))
                if targets is None:
                    continue
                c2 = c2r[j]
                if not np.any(c2):
                    continue
                lefts.append(c1)
                rights.append(gsigns * c2 if _PARITY[i] else c2)
                slots.append((row, targets))
    if slots:
        coeffs = kernel.multiply(np.stack(lefts), np.stack(rights), n_gen)
        for coeff, (row, targets) in zip(coeffs, slots):
            for slot, sign in targets:
                row[slot] += sign * coeff
    return out


def _signed_zero_coeffs(rng, shape):
    """Random coefficients with whole slots zero and scattered +-0.0 parts."""
    parts = rng.normal(size=shape + (2,))
    parts[rng.random(shape + (2,)) < 0.3] = 0.0
    parts[rng.random(shape + (2,)) < 0.5] *= -1.0
    c = np.empty(shape, dtype=np.complex128)
    c.real, c.imag = parts[..., 0], parts[..., 1]
    c[rng.random(shape[:-1]) < 0.3] = 0.0
    return c


@pytest.mark.parametrize("n_gen", [0, 2, 4])
@pytest.mark.parametrize("batch", [(), (5,)])
def test_compose_coeff_arrays_matches_row_loop_bitwise(n_gen, batch):
    rng = np.random.default_rng(n_gen * 10 + len(batch))
    shape = batch + (4, 1 << n_gen)
    for _ in range(20):
        c1, c2 = _signed_zero_coeffs(rng, shape), _signed_zero_coeffs(rng, shape)
        got = _compose_coeff_arrays(c1, c2, n_gen)
        want = _compose_reference(c1, c2, n_gen)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# -- the rows adjoint against the per-slot loop -------------------------------------


def _adjoint_reference(op):
    """The adjoint's coefficients slot by slot: each slot's coefficient,
    grade-involuted if its basis element is odd, conjugated and added to
    the zero of the slot it moves to (b and b† swap)."""
    out = [op.gens.zero()] * 4
    for slot, c in enumerate(op.coefficients()):
        target = (0, 2, 1, 3)[slot]
        cc = c.grade_involution() if _PARITY[slot] else c
        out[target] = out[target] + cc.conjugate()
    return out


@pytest.mark.parametrize("pairs", [(), ("zeta",), ("zeta", "eta")])
def test_adjoint_matches_slot_loop_bitwise(pairs):
    gens = GeneratorSet.from_pairs(pairs)
    rng = np.random.default_rng(len(pairs))
    for _ in range(20):
        op = FermionOperator(gens, *(Multivector(gens, row) for row in
                                     _signed_zero_coeffs(rng, (4, gens.dim))))
        got = np.stack([c.coeffs for c in op.adjoint().coefficients()])
        want = np.stack([c.coeffs for c in _adjoint_reference(op)])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
