"""Two-mode Fourier cat code: construction, gates and loss diagnostics."""

from .groups import (
    FiniteMatrixGroup,
    GroupFourierTransform,
    Irrep,
    build_fourier_transform,
    cyclic_group,
    generate_group,
    irrep_table,
    pauli_group,
    quaternion_group,
    verify_block_diagonalization,
)
from .fock import (
    annihilation_operator,
    cat_state,
    coherent_product,
    coherent_state,
    hermitian_inv_sqrt,
    infidelity,
    normalize,
    number_diagonal_operator,
)
from .encoding import (
    CatQuditCode,
    CodeBasis,
    Constellation,
    cat_qudit,
    code_basis,
    gram_fourier_spectrum,
    gram_matrix,
    make_constellation,
)
from .gates import (
    ZY_LABELS,
    LogicalAction,
    composite_hadamard_check,
    cz_gate_check,
    cz_target,
    logical_action,
    mod4_verification,
    phase_aligned_distance,
    s_gate_check,
    snap_gate_check,
    y_readout,
    zeno_projected_hamiltonian,
    zy_eigenstates,
)
from .channels import (
    QecMatrix,
    kl_first_order_check,
    lambda_matrix,
    lindblad_kernel_check,
    petz_entanglement_fidelity,
    qec_matrix_analytic,
    qec_matrix_fock,
    sweep_alpha,
    sweep_gamma,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
