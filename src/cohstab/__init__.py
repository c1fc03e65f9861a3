"""Coherence-preserving Hamiltonians at desk scale.

Exact Grassmann algebra, one-mode fermion and truncated boson Fock spaces,
RK4 time propagation, ladder-operator invariants, and certification of
temporal stability of coherent states.
"""

from .boson import (
    BosonLadderInvariant,
    BosonState,
    apply_ladder,
    displace,
    eigenvalue_lsq,
    expectation_lowering,
    expectation_number,
    make_coherent_boson,
)
from .coeffs import (
    CoefficientFn,
    complex_pair,
    const_fn,
    cos_fn,
    poly_fn,
    sin_fn,
    zero_fn,
)
from .coherence import (
    CoherenceReport,
    Classification,
    MultivectorPath,
    VerificationReport,
    check_eigenstate,
    classify_hamiltonian,
    reconstruct_forcing,
    verify_trajectory,
)
from .dynamics import (
    BosonInvariantPath,
    ClassicalBosonPath,
    DenseHamiltonian,
    FermionInvariantPath,
    GrassmannPath,
    HamiltonianSpec,
    IntegrationConfig,
    Trajectory,
    build_ladder_invariant,
    cumulative_simpson,
    evolve_classical_boson,
    evolve_grassmann_classical,
    evolve_nu_system,
    evolve_operator_transport,
    evolve_schrodinger_boson,
    evolve_schrodinger_fermion,
    hamiltonian_operator,
    invariant_residual,
)
from .errors import CohstabError
from .fermion import (
    FermionOperator,
    FermionState,
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
from .grassmann import (
    GeneratorSet,
    Multivector,
    berezin_pair,
    conjugate,
    exponential,
    grade_involution,
    invert,
    left_derivative,
    multiply,
)
from .scenario import Scenario, parse_coefficient_expr, parse_scenario, serialize_scenario

__version__ = "0.1.0"
