"""Exact algebra identities of the Grassmann kernel."""

import sys
import threading

import numpy as np
import pytest

from cohstab import dynamics, kernel
from cohstab.errors import MismatchedGenerators, NotInvertible, UnknownPair
from cohstab.fermion import FermionOperator, make_coherent
from cohstab.grassmann import (
    GeneratorSet,
    Multivector,
    berezin_pair,
    conjugate,
    exponential,
    grade_involution,
    invert,
    left_derivative,
    multiply,
    random_multivector,
)
from cohstab.kernel import tables

TOL = 1e-13


@pytest.fixture
def zeta(gens1):
    return gens1.gen("zeta")


@pytest.fixture
def zeta_star(gens1):
    return gens1.gen("zeta*")


@pytest.mark.parametrize("n_pairs", range(tables.MAX_GENERATORS // 2 + 1))
def test_monomial_labels_name_each_mask_s_generators(n_pairs):
    gens = GeneratorSet.from_pairs(f"g{k}" for k in range(n_pairs))
    labels = gens.monomial_labels
    assert labels is gens.monomial_labels  # built once per generator set
    assert labels == tuple(" ".join(n for i, n in enumerate(gens.names) if mask >> i & 1)
                           or "1" for mask in range(gens.dim))


def test_repr_labels_terms(gens1, zeta, zeta_star):
    assert repr(2 + 0.5 * zeta * zeta_star) == "((2+0j)) + ((0.5+0j))*[zeta zeta*]"


# -- multiplication ----------------------------------------------------------


def test_generator_squares_to_zero(zeta):
    assert multiply(zeta, zeta).sup_norm() == 0.0


def test_anticommutation_canonical_order(gens1, zeta, zeta_star):
    # zeta* zeta is stored as -zeta zeta*
    prod = multiply(zeta_star, zeta)
    want = Multivector.from_terms(gens1, {0b11: -1.0})
    assert prod == want


def test_distributivity_over_nilpotents(gens1, zeta, zeta_star):
    prod = (1 + zeta) * (1 + zeta_star)
    want = Multivector.from_terms(gens1, {0b00: 1, 0b01: 1, 0b10: 1, 0b11: 1})
    assert prod.isclose(want, 0.0)


def test_mismatched_generators_rejected(gens1, gens2):
    with pytest.raises(MismatchedGenerators):
        multiply(gens1.gen(0), gens2.gen(0))


def test_associativity_exhaustive_monomials(gens2):
    dim = gens2.dim
    monomials = [Multivector.from_terms(gens2, {m: 1.0}) for m in range(dim)]
    for a in monomials:
        for b in monomials:
            ab = a * b
            for c in monomials:
                assert ((ab * c) - (a * (b * c))).sup_norm() == 0.0


def test_associativity_random(gens2, rng):
    for _ in range(20):
        x = random_multivector(gens2, rng)
        y = random_multivector(gens2, rng)
        z = random_multivector(gens2, rng)
        assert ((x * y) * z).isclose(x * (y * z), 1e-12)


def test_graded_commutativity(gens2):
    degs = {}
    for mask in range(gens2.dim):
        degs[mask] = bin(mask).count("1")
    for ma in range(gens2.dim):
        for mb in range(gens2.dim):
            a = Multivector.from_terms(gens2, {ma: 1.0})
            b = Multivector.from_terms(gens2, {mb: 1.0})
            sign = (-1.0) ** (degs[ma] * degs[mb])
            assert ((a * b) - sign * (b * a)).sup_norm() == 0.0


# -- batched kernel calls -------------------------------------------------------


def _signed_zero_rows(rng, rows, dim):
    """Random complex rows with exact zeros and negative zeros mixed in."""
    parts = rng.standard_normal((2, rows, dim))
    parts[rng.random(parts.shape) < 0.2] = 0.0
    parts[rng.random(parts.shape) < 0.2] = -0.0
    out = np.empty((rows, dim), dtype=np.complex128)
    out.real, out.imag = parts  # x + 1j*y would turn some -0.0 into +0.0
    return out


def _scalar_oracle(x, y, n_gen):
    """The graded product as one scalar loop over the table, in table order."""
    left, right, target, sign = kernel.tables.mul_table(n_gen)
    out = [0.0] * (2 << n_gen)
    for a, b, t, s in zip(left.tolist(), right.tolist(), target.tolist(), sign.tolist()):
        p = s * x[a].real
        q = s * x[a].imag
        c, d = y[b].real, y[b].imag
        out[2 * t] += p * c - q * d
        out[2 * t + 1] += p * d + q * c
    return np.asarray(out).view(np.uint64)


def _bits(a):
    """The bits of each float, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n_gen", [2, 4, 8])
def test_batched_multiply_bit_identical_to_rows(n_gen):
    rng = np.random.default_rng(n_gen)
    dim = 1 << n_gen
    # a plan holds 64 B per pair of a row: 3**n_gen pairs
    block = max(1, kernel.TABLE_BYTES // (64 * 3 ** n_gen))
    empty = np.empty((0, dim), dtype=np.complex128)
    assert kernel.multiply(empty, empty, n_gen).shape == (0, dim)
    for rows in (1, 2, 5, 2 * block + 1):  # the last runs in three blocks
        x = _signed_zero_rows(rng, rows, dim)
        y = _signed_zero_rows(rng, rows, dim)
        got = kernel.multiply(x, y, n_gen)
        assert got.shape == (rows, dim)
        for b in range(rows):
            single = kernel.multiply(x[b], y[b], n_gen)
            assert np.array_equal(_bits(got[b]), _bits(single))
        assert np.array_equal(_bits(got[-1]), _scalar_oracle(x[-1], y[-1], n_gen))


def test_batched_multiply_on_views_and_real_input(gens2, rng):
    # strided and reversed rows, and float input, take the contiguous path
    x = _signed_zero_rows(rng, 4, gens2.dim)
    y = _signed_zero_rows(rng, 4, gens2.dim)
    got = kernel.multiply(x[::-2], y[1::2], 4)
    for k, (a, b) in enumerate(zip(x[::-2], y[1::2])):
        assert np.array_equal(_bits(got[k]), _scalar_oracle(a, b, 4))
    real = kernel.multiply(x.real, y.real, 4)
    want = kernel.multiply(x.real.astype(np.complex128), y.real.astype(np.complex128), 4)
    assert np.array_equal(_bits(real), _bits(want))


def test_single_array_keeps_its_shape(gens2, rng):
    x = random_multivector(gens2, rng).coeffs
    y = random_multivector(gens2, rng).coeffs
    out = kernel.multiply(x, y, gens2.n_generators)
    assert out.shape == (gens2.dim,)
    assert np.array_equal(_bits(out), _scalar_oracle(x, y, gens2.n_generators))


def test_mismatched_shapes_rejected(gens2, rng):
    x = random_multivector(gens2, rng).coeffs
    with pytest.raises(ValueError):
        kernel.multiply(np.stack((x, x)), x, 4)
    with pytest.raises(ValueError):
        kernel.multiply(x, x, 2)
    with pytest.raises(ValueError):
        kernel.multiply(x.reshape(1, 1, -1), x.reshape(1, 1, -1), 4)


def _in_fresh_thread(fn):
    """Run fn in a new thread, which starts with no kernel plans of its own."""
    result, errors = [], []

    def target():
        try:
            result.append(fn())
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    worker = threading.Thread(target=target)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    if errors:
        raise errors[0]
    return result[0]


@pytest.mark.parametrize("order", [(5, 2, 1), (1, 2, 5)])
def test_plan_growth_keeps_results(order):
    rng = np.random.default_rng(11)
    n_gen, dim = 8, 256
    x = _signed_zero_rows(rng, 5, dim)
    y = _signed_zero_rows(rng, 5, dim)
    want = [_scalar_oracle(a, b, n_gen) for a, b in zip(x, y)]

    def sequence():
        return [kernel.multiply(x[:rows], y[:rows], n_gen) for rows in order]

    for rows, got in zip(order, _in_fresh_thread(sequence)):
        for b in range(rows):
            assert np.array_equal(_bits(got[b]), want[b])


# -- support-restricted plans ----------------------------------------------------


def _support(rng, n_gen):
    """Four rows: left-restricted, right-restricted, both, and unrestricted."""
    dim = 1 << n_gen

    def masks():
        return tuple(int(m) for m in np.sort(rng.choice(dim, rng.integers(1, 4), replace=False)))

    return ((masks(), None), (None, masks()), (masks(), masks()), (None, None))


def _zero_off(rng, rows, support, side):
    """rows with +-0.0 at every mask that `support` rules out on `side`
    (0: left, 1: right); row b takes entry b % len(support)."""
    out = rows.copy()
    parts = out.view(np.float64).reshape(len(rows), -1, 2)
    for b in range(len(rows)):
        masks = support[b % len(support)][side]
        if masks is not None:
            off = np.ones(rows.shape[1], dtype=bool)
            off[list(masks)] = False
            parts[b, off] = np.where(rng.random((off.sum(), 2)) < 0.5, 0.0, -0.0)
    return out


def _restricted_plan(n_gen, support):
    """A bilinear plan of x*y on blocks of len(support) rows, row r of a
    block restricted to the masks of support[r] = (left, right)."""
    shape = (len(support), 1 << n_gen)
    return kernel.bilinear_plan(n_gen, tuple(
        ((0, r, left, None), (1, r, right, None), r)
        for r, (left, right) in enumerate(support)), (shape,) * 3)


def _restricted(plan, x, y):
    """The plan over rows x and y, a whole number of its blocks."""
    block = plan.out_shape
    return kernel.bilinear(plan, x.reshape((-1,) + block),
                           y.reshape((-1,) + block)).reshape(x.shape)


@pytest.mark.parametrize("n_gen", [2, 4, 8])
def test_restricted_plan_bit_identical_to_full(n_gen):
    rng = np.random.default_rng(100 + n_gen)
    support = _support(rng, n_gen)
    plan = _restricted_plan(n_gen, support)
    for blocks in (1, 2, 5):
        rows = blocks * len(support)
        x = _zero_off(rng, _signed_zero_rows(rng, rows, 1 << n_gen), support, 0)
        y = _zero_off(rng, _signed_zero_rows(rng, rows, 1 << n_gen), support, 1)
        got = _restricted(plan, x, y)
        assert np.array_equal(_bits(got), _bits(kernel.multiply(x, y, n_gen)))
        assert np.array_equal(_bits(got[2]), _scalar_oracle(x[2], y[2], n_gen))


def test_restricted_plan_on_one_array():
    rng = np.random.default_rng(5)
    support = (((0, 3), None),)
    x = _zero_off(rng, _signed_zero_rows(rng, 1, 16), support, 0)[0]
    y = _signed_zero_rows(rng, 1, 16)[0]
    got = _restricted(_restricted_plan(4, support), x, y)
    assert got.shape == (16,)
    assert np.array_equal(_bits(got), _scalar_oracle(x, y, 4))


def test_restricted_and_full_plans_never_share_a_slot(numpy_product):  # plans: numpy only
    rng = np.random.default_rng(6)
    n_gen = 4
    support = _support(rng, n_gen)
    s = len(support)
    # data that is non-zero off the support, so the two plans disagree
    x = _signed_zero_rows(rng, 5 * s, 1 << n_gen)
    y = _signed_zero_rows(rng, 5 * s, 1 << n_gen)
    full = [_scalar_oracle(a, b, n_gen) for a, b in zip(x, y)]
    restricted = _restricted(_restricted_plan(n_gen, support), x, y)
    assert not np.array_equal(_bits(restricted), np.stack(full))

    def sequence():
        # grow and shrink both plans, interleaved, on one generator count
        plan, out = _restricted_plan(n_gen, support), []
        for blocks in (2, 5, 1, 2, 5):
            rows = blocks * s
            out.append((rows, _restricted(plan, x[:rows], y[:rows]),
                        kernel.multiply(x[:rows], y[:rows], n_gen)))
        return out, plan.rows, {key: plan.rows for key, plan in kernel._local.plans.items()}

    out, blocks, plans = _in_fresh_thread(sequence)
    for rows, got_restricted, got_full in out:
        assert np.array_equal(_bits(got_restricted), _bits(restricted[:rows]))
        assert np.array_equal(_bits(got_full), np.stack(full[:rows]))
    assert blocks == 5
    assert plans == {n_gen: 5 * s}


def test_restricted_plan_rejects_masks_off_the_algebra():
    for masks in ((4,), (-1,), ((0, 1),)):
        with pytest.raises(ValueError):
            _restricted_plan(2, ((masks, None),))


def test_concurrent_evolutions_match_serial_runs():
    from cohstab.coeffs import const_fn, sin_fn
    from cohstab.dynamics import (
        HamiltonianSpec,
        IntegrationConfig,
        evolve_schrodinger_fermion,
    )
    from cohstab.fermion import make_coherent

    gens = GeneratorSet.from_pairs(("zeta", "eta", "chi"))
    spec = HamiltonianSpec("grassmann", const_fn(1.0), sin_fn(0.3, 1.0),
                           const_fn(0.2), gens=gens, eta_generator="eta")
    cfg = IntegrationConfig(t_end=0.1, dt=1e-3, stride=20)
    zeta, chi = gens.gen("zeta"), gens.gen("chi")
    # more threads than cores, each with its own start, all on one generator count
    starts = [make_coherent(zeta), make_coherent(0.5j * zeta - 0.7 * chi),
              make_coherent(0.3 * chi), make_coherent(-zeta + 0.2j * chi)]

    def run(s0):
        traj = evolve_schrodinger_fermion(spec, s0, cfg)
        return np.stack([np.stack((s.psi0.coeffs, s.psi1.coeffs)) for s in traj.states])

    serial = [run(s0) for s0 in starts]
    concurrent = [None] * len(starts)
    barrier = threading.Barrier(len(starts))

    def worker(k):
        barrier.wait()
        concurrent[k] = run(starts[k])

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(starts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for want, got in zip(serial, concurrent):
        assert got is not None
        assert np.array_equal(_bits(got), _bits(want))


# -- conjugation and involutions ----------------------------------------------


def test_conjugate_generator(zeta, zeta_star):
    assert conjugate(zeta) == zeta_star


def test_conjugate_two_monomial(gens1, zeta, zeta_star):
    x = 1j * (zeta * zeta_star)
    assert conjugate(x).isclose(-1j * (zeta * zeta_star), 0.0)


def test_conjugate_is_involution_all_monomials(gens2, rng):
    # brute force over all 16 basis monomials, then a random element
    for mask in range(gens2.dim):
        c = complex(rng.standard_normal(), rng.standard_normal())
        x = Multivector.from_terms(gens2, {mask: c})
        assert conjugate(conjugate(x)).isclose(x, 1e-15)
    x = random_multivector(gens2, rng)
    assert conjugate(conjugate(x)).isclose(x, 1e-14)


def test_conjugate_antihomomorphism(gens2, rng):
    for _ in range(20):
        x = random_multivector(gens2, rng)
        y = random_multivector(gens2, rng)
        assert conjugate(x * y).isclose(conjugate(y) * conjugate(x), 1e-12)


def test_grade_involution(gens1, zeta):
    zz = zeta * gens1.gen("zeta*")
    assert grade_involution(zeta).isclose(-zeta, 0.0)
    assert grade_involution(zz).isclose(zz, 0.0)
    assert grade_involution(1 + zeta).isclose(1 - zeta, 0.0)


# -- exponential and inverse --------------------------------------------------


def test_exponential_of_zero(gens2):
    assert exponential(gens2.zero()).isclose(gens2.one(), 0.0)


def test_exponential_normalization_factor(gens1, zeta, zeta_star):
    x = exponential(-0.5 * (zeta_star * zeta))
    want = 1 - 0.5 * (zeta_star * zeta)
    assert x.isclose(want, 0.0)


def test_exponential_inverse_pairs(gens2, rng):
    for _ in range(10):
        x = random_multivector(gens2, rng).even_part()
        prod = exponential(x) * exponential(-x)
        assert prod.isclose(gens2.one(), 1e-10)


def test_exponential_additive_when_commuting(gens2, rng):
    # even elements are central, so exp is a homomorphism on them
    for _ in range(10):
        x = random_multivector(gens2, rng, scale=0.5).even_part()
        y = random_multivector(gens2, rng, scale=0.5).even_part()
        assert (x * y).isclose(y * x, 1e-13)
        lhs = exponential(x + y)
        rhs = exponential(x) * exponential(y)
        assert lhs.isclose(rhs, 1e-11)


def test_invert_identity(gens1):
    assert invert(gens1.one()).isclose(gens1.one(), 0.0)


def test_invert_normalization(gens1, zeta, zeta_star):
    x = 1 - 0.5 * (zeta_star * zeta)
    assert invert(x).isclose(1 + 0.5 * (zeta_star * zeta), 0.0)


def test_invert_multiplies_back_to_one(gens1, zeta, zeta_star):
    # (zeta + zeta*)^2 = 0, so the inverse has no two-generator term
    x = 2 + zeta + zeta_star
    inv = invert(x)
    assert (x * inv).isclose(gens1.one(), 1e-15)
    want = 0.5 - 0.25 * zeta - 0.25 * zeta_star
    assert inv.isclose(want, 1e-15)


def test_invert_random_roundtrip(gens2, rng):
    for _ in range(10):
        x = random_multivector(gens2, rng) + 3.0
        assert (x * invert(x)).isclose(gens2.one(), 1e-12)


def test_invert_requires_body(zeta):
    with pytest.raises(NotInvertible):
        invert(zeta)


@pytest.mark.parametrize("body", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_invert_refuses_non_finite_body(zeta, body):
    # a NaN body would return all-NaN coefficients, an infinite one zeros
    with pytest.raises(NotInvertible):
        invert(zeta + body)


def test_soul_nilpotency(gens2, rng):
    n = gens2.n_generators
    for _ in range(5):
        s = random_multivector(gens2, rng).soul()
        power = gens2.one()
        for _ in range(n + 1):
            power = power * s
        assert power.sup_norm() == 0.0


# -- Berezin integration --------------------------------------------------------


def test_berezin_rules(gens1, zeta, zeta_star):
    assert berezin_pair(zeta * zeta_star, 0).isclose(gens1.one(), 0.0)
    assert berezin_pair(gens1.one(), 0).sup_norm() == 0.0
    assert berezin_pair(zeta, 0).sup_norm() == 0.0
    assert berezin_pair(zeta_star, 0).sup_norm() == 0.0


def test_berezin_reordered_integrand(gens1, zeta, zeta_star):
    assert berezin_pair(1 - zeta_star * zeta, 0).isclose(gens1.one(), 0.0)


def test_berezin_by_name_and_linearity(gens2, rng):
    x = random_multivector(gens2, rng)
    y = random_multivector(gens2, rng)
    lhs = berezin_pair(2.0 * x + y, "eta")
    rhs = 2.0 * berezin_pair(x, 1) + berezin_pair(y, 1)
    assert lhs.isclose(rhs, 1e-13)


def test_berezin_unknown_pair(gens1, zeta):
    with pytest.raises(UnknownPair):
        berezin_pair(zeta, 3)


def test_left_derivative_sign(gens2):
    # d/d(zeta*) of zeta zeta* picks the sign of moving past zeta
    zeta, zeta_star = gens2.gen("zeta"), gens2.gen("zeta*")
    d = left_derivative(zeta * zeta_star, 1)
    assert d.isclose(-zeta, 0.0)


# -- structure -----------------------------------------------------------------


def test_body_soul_split(gens2, rng):
    x = random_multivector(gens2, rng)
    assert x.isclose(x.soul() + x.body, 0.0)
    assert x.isclose(x.even_part() + x.odd_part(), 0.0)


def test_sup_norm_zero_iff_zero(gens2, rng):
    x = random_multivector(gens2, rng)
    assert (x - x).sup_norm() == 0.0
    assert x.sup_norm() > 0.0


def test_terms_view_prunes_zeros(gens1, zeta):
    x = zeta + Multivector.from_terms(gens1, {0b10: 1e-18})
    assert set(x.terms) == {0b01}


def test_terms_view_keeps_nan(gens1):
    # NaN is not within PRUNE_TOL of zero, so it is no zero to prune
    x = Multivector(gens1, [np.nan, 0, 0, 0])
    assert list(x.terms) == [0] and repr(x) == "((nan+0j))"
    assert repr(FermionOperator.scaled_identity(x)) == "[((nan+0j))]*I"
    eta = Multivector(gens1, [0, complex(0, np.nan), 0, 0])
    assert dynamics._holds_eta((0, 0b10, 0b01, 0), eta)  # NaN on the eta generator


def test_generator_cap():
    with pytest.raises(ValueError):
        GeneratorSet.from_pairs(("a", "b", "c", "d", "e"))


def test_algebra_size_bounded_at_row_and_kernel_entry_points():
    with pytest.raises(ValueError):
        exponential(np.zeros((1, 512)))
    with pytest.raises(ValueError):
        make_coherent(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        kernel.multiply(np.zeros(512), np.zeros(512), 9)
    for build in (tables.mul_table, tables.conj_table, tables.degrees):
        with pytest.raises(ValueError):
            build(9)


def test_immutability(gens1, zeta):
    with pytest.raises(AttributeError):
        zeta.coeffs = None
    with pytest.raises(ValueError):
        zeta.coeffs[0] = 1.0


def test_m_zero_algebra_is_plain_complex():
    g0 = GeneratorSet(())
    x = g0.scalar(2 + 1j)
    y = g0.scalar(3 - 1j)
    assert (x * y).body == (2 + 1j) * (3 - 1j)
    assert conjugate(x).body == (2 - 1j)


def _scatter_conjugate(x, n_gen):
    """Conjugation as a scatter over conj_table, the form before the gather."""
    perm, sign = kernel.tables.conj_table(n_gen)
    out = np.zeros_like(x)
    out[..., perm] = sign * np.conj(x)
    return out


@pytest.mark.parametrize("n_gen", (2, 4, 8))
@pytest.mark.parametrize("lead", [(), (1,), (5,), (3, 2)],
                         ids=["one", "row", "batch", "pairs"])
def test_conjugate_gather_matches_scatter(n_gen, lead, rng):
    shape = lead + (1 << n_gen,)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = x.reshape(-1)
    flat[::3] = 0.0
    flat[1::5] = complex(-0.0, 0.0)
    flat[2::7] = complex(0.0, -0.0)
    flat[3::11] = complex(-0.0, -0.0)
    got = kernel.conjugate(x, n_gen)
    want = _scatter_conjugate(x, n_gen)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
