"""Dense linear algebra over small multi-qubit Hilbert spaces.

Conventions shared by the whole package:

* Basis states are labelled by bit strings a_{N-1} ... a_0 with index
  j = sum_k a_k 2**k, i.e. the leftmost bit is the most significant
  tensor factor.
* Z acts as Z|0> = +|0>, Z|1> = -|1>.
* Entropies and information are measured in bits (log base 2).
* Unitaries differing only by a global phase are physically identical;
  comparisons go through :func:`phase_invariant_distance`.

Everything here is a pure function on plain numpy arrays, so concurrent
use is safe.
"""

from __future__ import annotations

import numpy as np

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# density-matrix tolerances: eigenvalues down to -EIG_CLAMP are round-off
EIG_CLAMP = 1e-9
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10


def embed(op, target, register_order) -> np.ndarray:
    """Lift the single-qubit ``op`` on ``target`` to the full register.

    ``register_order`` lists all labels, most significant first; every
    other position gets the identity.
    """
    order = list(register_order)
    if target not in order:
        raise ValueError(f"unknown register label {target!r}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"operator shape {op.shape} is not a single-qubit 2x2")
    k = order.index(target)
    return np.kron(np.kron(np.eye(2**k), op), np.eye(2 ** (len(order) - k - 1)))


def hermitian_propagator(h):
    """The function t -> exp(-i h t) for Hermitian ``h``, diagonalising
    ``h`` once: exact to machine precision for the small (dim <= 8)
    operators used here, with no step-size or truncation parameters."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("operator is not Hermitian")
    w, v = np.linalg.eigh(h)
    v_dag = v.conj().T
    return lambda t: (v * np.exp(-1j * w * t)) @ v_dag


def dft_matrix(dim: int) -> np.ndarray:
    """Discrete Fourier transform, entry (k, j) = exp(2*pi*i*k*j/dim)/sqrt(dim)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def von_neumann_entropy_bits(rhos):
    """-tr(rho log2 rho) in bits of one matrix (a numpy float64) or of each
    of a stack (an array; empty for an empty stack), from one batched
    ``eigvalsh``.

    Eigenvalues in [-EIG_CLAMP, 0] are exact zeros (integrator round-off);
    one below -EIG_CLAMP, a NaN one or a non-finite entry raises.
    """
    rhos = _square_matrices(rhos)
    if not np.isfinite(rhos).all():  # LAPACK may drop a NaN, return one or not converge
        raise ValueError("density matrix has non-finite entries")
    return spectrum_entropies_bits(np.linalg.eigvalsh(rhos))


def spectrum_entropies_bits(w) -> np.ndarray:
    """Entropy in bits of each spectrum (last axis) of ``w``, clamped as above."""
    if w.size and not w.min() >= -EIG_CLAMP:  # a NaN fails this comparison too
        raise ValueError(f"density matrix eigenvalue {w.min():.3e} below -{EIG_CLAMP:g} or NaN")
    w = np.where(w > 0.0, w, 1.0)  # a nonpositive eigenvalue counts as 0: 1 log2 1 = 0
    return -(w * np.log2(w)).sum(axis=-1)


def phase_invariant_distance(u, v) -> float:
    """1 - |tr(u^dag v)|/dim; zero iff u = exp(i*alpha) v."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operands must be square matrices of equal dimension")
    d = 1.0 - abs(np.trace(u.conj().T @ v)) / u.shape[0]
    return max(d, 0.0)


def state_fidelity(a, b) -> float:
    """|<a|b>|^2 for normalized state vectors."""
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))) ** 2)


def is_hermitian(h, tol: float = HERMITICITY_TOL) -> bool:
    h = np.asarray(h)
    return bool(np.max(np.abs(h - h.conj().T)) <= tol)


def _square_matrices(rho) -> np.ndarray:
    """``rho`` as an array of one or a stack of d x d matrices, d >= 1, else ValueError."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2] or rho.shape[-1] == 0:
        raise ValueError(f"expected square matrices of size 1 or more, got shape {rho.shape}")
    return rho


def density_matrix_defects(rho) -> tuple[list[str], np.ndarray]:
    """The violated density-matrix invariants of ``rho``, one matrix or a
    (..., d, d) stack, and the (states, d) ascending eigenvalues, zeros for
    a non-finite state, from one batched ``eigvalsh`` of the states
    themselves.  The messages are empty when every state is valid, else
    those of the first state that is not, built only on a failure.  It
    reads the lower triangles, so a state beyond :data:`HERMITICITY_TOL`
    gets no eigenvalue verdict; within it, by Weyl, the minimum is within
    d * tol / 2 (4e-10 at d = 8) of the Hermitian part's, below
    :data:`EIG_CLAMP`."""
    rho = _square_matrices(rho)
    raw = states = rho.reshape(-1, *rho.shape[-2:])
    # a non-finite state is scored as zeros, whose trace 0 marks it bad:
    # inf - inf would warn, and eigvalsh may raise LinAlgError on it
    if not np.isfinite(raw).all():
        states = np.where(np.isfinite(raw).all(axis=(-2, -1))[:, None, None], raw, 0)
    herm = np.abs(states - states.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = np.trace(states, axis1=-2, axis2=-1)
    w = np.linalg.eigvalsh(states)  # eigenvalues ascend
    negative = (w[:, 0] < -EIG_CLAMP) & (herm <= HERMITICITY_TOL)
    bad = (herm > HERMITICITY_TOL) | (abs(tr - 1.0) > TRACE_TOL) | negative
    if not bad.any():
        return [], w
    i = bad.argmax()  # the first bad state
    nonfinite = np.count_nonzero(~np.isfinite(raw[i]))
    if nonfinite:
        return [f"non-finite entries ({nonfinite} of {raw[i].size})"], w
    defects = []
    if herm[i] > HERMITICITY_TOL:
        defects.append(f"hermiticity violated by {herm[i]:.3e}")
    if abs(tr[i] - 1.0) > TRACE_TOL:
        defects.append(f"trace {tr[i]:.12g} deviates from 1 by {abs(tr[i] - 1.0):.3e}")
    if negative[i]:
        defects.append(f"negative eigenvalue {w[i, 0]:.3e}")
    return defects, w

