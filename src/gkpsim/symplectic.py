"""Symplectic linear algebra over R^{2n} and integer lattice normal forms.

Conventions: phase-space vectors are ordered (q_1..q_n, p_1..p_n) and the
symplectic form is Omega = [[0, I], [-I, 0]].
"""

from __future__ import annotations

import numpy as np

SYMPLECTIC_TOL = 1e-12
INTEGRALITY_TOL = 1e-9


def omega(n: int) -> np.ndarray:
    """Symplectic form matrix for n modes."""
    om = np.zeros((2 * n, 2 * n))
    om[:n, n:], om[n:, :n] = np.eye(n), -np.eye(n)
    return om


def check_symplectic(m, tol: float = SYMPLECTIC_TOL) -> bool:
    """True iff ||M^T Omega M - Omega||_max <= tol.

    Raises ValueError for non-square or odd-dimensioned input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] % 2 != 0:
        raise ValueError(f"symplectic matrices have even dimension, got {m.shape[0]}")
    om = omega(m.shape[0] // 2)
    return bool(np.max(np.abs(m.T @ om @ m - om)) <= tol)


def assert_symplectic(m, tol: float = SYMPLECTIC_TOL, name: str = "matrix"):
    if not check_symplectic(m, tol):
        raise ValueError(f"{name} is not symplectic to tolerance {tol}")


def rotation(theta: float) -> np.ndarray:
    """Single-mode phase-space rotation R(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def is_integral(x, tol: float = INTEGRALITY_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.max(np.abs(x - np.round(x))) <= tol)


def _swap_rows(a, n_acc, i, j):
    if i == j:
        return
    a[[i, j], :] = a[[j, i], :]
    a[:, [i, j]] = a[:, [j, i]]
    n_acc[[i, j], :] = n_acc[[j, i], :]


def _add_row(a, n_acc, i, j, c):
    # row_i += c*row_j together with the congruent column operation
    a[i, :] += c * a[j, :]
    a[:, i] += c * a[:, j]
    n_acc[i, :] += c * n_acc[j, :]


def _skew_normal_form(a: np.ndarray):
    """Congruence N A N^T = blockdiag([[0,d_k],[-d_k,0]]) for integral antisymmetric A.

    Returns (n_acc, ds) with d_k > 0 and blocks at rows (2k, 2k+1).
    """
    a = a.astype(object).copy()  # exact integer arithmetic, no overflow
    m = a.shape[0]
    n_acc = np.eye(m, dtype=object)
    for k in range(0, m, 2):
        while True:
            sub = a[k:, k:]
            nz = [(i, j) for i in range(m - k) for j in range(m - k) if sub[i, j] != 0]
            if not nz:
                raise ValueError("singular (non-full-rank) symplectic Gram matrix")
            i, j = min(nz, key=lambda ij: abs(sub[ij[0], ij[1]]))
            i, j = i + k, j + k
            # move the pivot to (k, k+1), tracking the index shuffle
            if i != k:
                if j == k:
                    j = i
                _swap_rows(a, n_acc, k, i)
            if j != k + 1:
                _swap_rows(a, n_acc, k + 1, j)
            p = a[k, k + 1]
            # reduce rows k and k+1 beyond the pair modulo the pivot:
            # row_j += c*row_k changes a[k+1, j] by -c*p (column effect),
            # row_j += c*row_{k+1} changes a[k, j] by +c*p.
            for j in range(k + 2, m):
                if a[k + 1, j] != 0:
                    _add_row(a, n_acc, j, k, a[k + 1, j] // p)
                if a[k, j] != 0:
                    _add_row(a, n_acc, j, k + 1, -(a[k, j] // p))
            if all(a[k, j] == 0 and a[k + 1, j] == 0 for j in range(k + 2, m)):
                break
        if a[k, k + 1] < 0:
            _swap_rows(a, n_acc, k, k + 1)
    ds = np.array([int(a[k, k + 1]) for k in range(0, m, 2)], dtype=np.int64)
    return n_acc.astype(np.int64), ds


def standard_form(m_rows: np.ndarray):
    """Reduce a lattice generator matrix (rows m_J^T) to standard form M'^T = Sigma D^{1/2}.

    Returns (sigma, dims) where sigma is symplectic and dims is the dimension
    vector sorted in non-increasing order. The returned generators span the
    same lattice as the input; the representative is canonical only up to
    this choice.

    Raises ValueError if the lattice is not symplectic (M Omega M^T not
    integral) or not full rank.
    """
    m = np.asarray(m_rows, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
        raise ValueError(f"generator matrix must be square and even-dimensional, got {m.shape}")
    two_n = m.shape[0]
    n = two_n // 2
    om = omega(n)
    gram = m @ om @ m.T
    if not is_integral(gram):
        raise ValueError("lattice is not symplectic: M Omega M^T is not integral")
    a = np.round(gram).astype(np.int64)
    if abs(np.linalg.det(m)) < 1e-12:
        raise ValueError("generator matrix is singular")
    n_acc, ds = _skew_normal_form(a)

    # order the pairs by decreasing d and interleave to the (j, j+n) layout
    order = np.argsort(-ds, kind="stable")
    perm = np.empty(two_n, dtype=np.int64)
    for new_j, old_pair in enumerate(order):
        perm[new_j] = 2 * old_pair
        perm[new_j + n] = 2 * old_pair + 1
    n_final = n_acc[perm, :]
    ds = ds[order]

    m_new = n_final.astype(float) @ m
    d_half = np.sqrt(np.concatenate([ds, ds]).astype(float))
    sigma = m_new.T / d_half[np.newaxis, :]
    assert_symplectic(sigma, 1e-9, "standard-form Sigma")
    return sigma, ds
