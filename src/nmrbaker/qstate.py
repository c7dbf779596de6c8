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


def kron(*ops) -> np.ndarray:
    """Kronecker product with the leftmost operand most significant."""
    ops = [np.asarray(op, dtype=complex) for op in ops]
    for op in ops:
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("kron operands must be square matrices")
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def embed(op, targets, register_order) -> np.ndarray:
    """Lift ``op`` acting on ``targets`` to the full register.

    ``register_order`` lists all labels, most significant first.  The
    tensor factors of ``op`` follow the order of ``targets`` (first
    target = most significant factor of ``op``); all other positions get
    the identity.
    """
    targets = list(targets)
    order = list(register_order)
    for t in targets:
        if t not in order:
            raise ValueError(f"unknown register label {t!r}")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target labels")
    op = np.asarray(op, dtype=complex)
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise ValueError(
            f"operator shape {op.shape} does not match {k} target qubit(s)"
        )
    n = len(order)
    rest = [q for q in order if q not in targets]
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    current = targets + rest
    perm = [current.index(q) for q in order]
    tensor = full.reshape([2] * (2 * n))
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**n, 2**n))


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


def von_neumann_entropy_bits(rho) -> float:
    """-tr(rho log2 rho) in bits.

    Eigenvalues in [-EIG_CLAMP, 0] are treated as exact zeros (integrator
    round-off); anything below -EIG_CLAMP signals a corrupted state and
    raises.
    """
    return _spectrum_entropy_bits(np.linalg.eigvalsh(np.asarray(rho)))


def von_neumann_entropies_bits(rhos) -> list[float]:
    """:func:`von_neumann_entropy_bits` of each matrix in a stack, from
    one batched ``eigvalsh``; each value equals the single-matrix one."""
    return [_spectrum_entropy_bits(w) for w in np.linalg.eigvalsh(np.asarray(rhos))]


def _spectrum_entropy_bits(w: np.ndarray) -> float:
    if w.min() < -EIG_CLAMP:
        raise ValueError(
            f"density matrix has eigenvalue {w.min():.3e} below -{EIG_CLAMP:g}"
        )
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


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


def density_matrix_defects(rho) -> list[str]:
    """List of violated density-matrix invariants (empty when valid)."""
    rho = np.asarray(rho)
    defects = []
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        defects.append(f"hermiticity violated by {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        defects.append(f"trace {tr:.12g} deviates from 1 by {abs(tr - 1.0):.3e}")
    wmin = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if wmin < -EIG_CLAMP:
        defects.append(f"negative eigenvalue {wmin:.3e}")
    return defects


def check_density_matrix(rho) -> None:
    """Raise ValueError when ``rho`` violates a density-matrix invariant."""
    defects = density_matrix_defects(rho)
    if defects:
        raise ValueError("invalid density matrix: " + "; ".join(defects))
