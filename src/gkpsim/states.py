"""State-level machinery for the stabilizer subsystem decomposition.

Basis kets |mu, k> are ideal codewords displaced by W(k); a SubsystemKet is a
finite superposition of them with k restricted to a primitive cell.
Amplitudes follow the density convention: |psi> = sum_mu int_P dk
amp_mu(k) |mu, k>, so sampled continua carry quadrature weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lattice import GkpCode, PrimitiveCell, TransformedCell, UnionCell, square_code, voronoi_box
from .logical import _cell_quadrature_points, pauli_matrix
from .symplectic import assert_symplectic, is_integral, omega, symplectic_product


@dataclass(frozen=True)
class DecompositionParams:
    """The triple (Sigma, d, P) defining a subsystem decomposition."""

    code: GkpCode
    cell: PrimitiveCell

    @property
    def n_modes(self) -> int:
        return self.code.n_modes


@dataclass
class KetTerm:
    label: tuple        # dit-string mu
    k: np.ndarray       # 2n-vector inside the cell
    amp: complex
    weight: float = 1.0  # quadrature weight (1 for discrete terms)


@dataclass
class SubsystemKet:
    params: DecompositionParams
    terms: list

    def norm_squared(self) -> float:
        """<psi|psi> under the density convention (weights supply dk)."""
        return sum(t.weight * abs(t.amp) ** 2 for t in self.terms)


def _group_by_k(pairs):
    """The items of (k, item) pairs, grouped by k rounded to a 1e-9 grid."""
    groups = {}
    for k, item in pairs:
        key = tuple(np.round(np.asarray(k) / 1e-9).astype(np.int64))
        groups.setdefault(key, []).append(item)
    return groups


# ---------------------------------------------------------------------------
# Zak states


def zak_position_amplitudes(k1: float, k2: float, a: float, window: int = 10):
    """Position-space comb of the Zak state |k1, k2>_a.

    Returns a list of (position, amplitude): peaks at sqrt(2 pi)(k1 + a s)
    with amplitudes (2 pi a^2)^{1/4} e^{i pi k1 k2} e^{2 i pi a k2 s}.
    """
    if a <= 0:
        raise ValueError("Zak parameter a must be positive")
    pref = (2 * np.pi * a ** 2) ** 0.25 * np.exp(1j * np.pi * k1 * k2)
    out = []
    for s in range(-window, window + 1):
        out.append((np.sqrt(2 * np.pi) * (k1 + a * s), pref * np.exp(2j * np.pi * a * k2 * s)))
    return out


# ---------------------------------------------------------------------------
# wavefunction decomposition


def decompose_wavefunction(psi, params: DecompositionParams, k_grid,
                           window: int = 12) -> SubsystemKet:
    """Sample <mu, k | phi> on a k-grid from the position wavefunction of phi.

    psi: callable x -> complex amplitude, where x is a scalar (n = 1) or an
    n-vector; it must be the position wavefunction of U_Sigma^{-1} |phi>
    (for Sigma = I this is |phi> itself).

    k_grid: sequence of (k, weight) pairs covering the cell (weights are
    quadrature weights for d^{2n}k).

    The comb sum over s is truncated at +-window per mode; the largest
    magnitude on the outermost shell is the reported tail bound, and a
    bound above 1e-10 raises.
    """
    code = params.code
    n = code.n_modes
    dims = np.array(code.dims, dtype=float)
    sqrt_d = np.sqrt(dims)
    d_total = float(np.prod(dims))
    sigma_inv = np.linalg.inv(code.sigma)
    om = omega(n)
    pref = (2 * np.pi) ** (n / 4.0) * d_total ** 0.25

    shifts = np.array(list(itertools.product(range(-window, window + 1), repeat=n)), dtype=float)
    shell = np.max(np.abs(shifts), axis=1)

    terms = []
    tail = 0.0
    for mu in itertools.product(*[range(d) for d in code.dims]):
        lbar_mu = code.dual_vector(np.concatenate([np.array(mu, dtype=float), np.zeros(n)]))
        for k, weight in k_grid:
            k = np.asarray(k, dtype=float)
            kt = sigma_inv @ (k + lbar_mu)
            ktq, ktp = kt[:n], kt[n:]
            positions = np.sqrt(2 * np.pi) * (ktq[np.newaxis, :] + shifts * sqrt_d[np.newaxis, :])
            vals = np.array([psi(x[0] if n == 1 else x) for x in positions], dtype=complex)
            phases = np.exp(-2j * np.pi * (shifts * sqrt_d[np.newaxis, :]) @ ktp)
            comb = np.sum(phases * vals)
            edge = np.max(np.abs(vals[shell == window])) if np.any(shell == window) else 0.0
            tail = max(tail, edge)
            amp = (pref * np.exp(-1j * np.pi * (lbar_mu @ om @ k))
                   * np.exp(-1j * np.pi * (ktq @ ktp)) * comb)
            terms.append(KetTerm(tuple(mu), k, amp, weight))
    if tail > 1e-10:
        raise ValueError(f"comb tail bound {tail:.2e} exceeds 1.0e-10; "
                         "enlarge the window or supply a decaying wavefunction")
    return SubsystemKet(params, terms)


def square_cell_grid(order: int = 32):
    """Gauss-Legendre (k, weight) grid on the square-qubit Voronoi cell."""
    return list(zip(*_cell_quadrature_points(voronoi_box(square_code()), order)))


# ---------------------------------------------------------------------------
# built-in wavefunctions


def vacuum_wavefunction():
    return lambda x: np.pi ** -0.25 * np.exp(-x * x / 2.0)


def position_gaussian_wavefunction(x0: float, width: float):
    return lambda x: (np.pi * width ** 2) ** -0.25 * np.exp(-((x - x0) ** 2) / (2 * width ** 2))


def approximate_codeword_wavefunction(mu: int, delta: float):
    """Position wavefunction of e^{-Delta^2 n} |mu_bar> (square qubit code),
    via the Mehler kernel summed over the ideal comb |s| <= 12; normalized."""
    q = np.exp(-delta ** 2)
    peaks = np.sqrt(np.pi) * (2 * np.arange(-12, 13) + mu)

    def kernel(x):
        x = np.asarray(x, dtype=float)
        num = 4 * np.outer(np.atleast_1d(x), peaks) * q - (1 + q * q) * (
            np.atleast_1d(x)[:, None] ** 2 + peaks[None, :] ** 2)
        vals = np.exp(num / (2 * (1 - q * q))) / np.sqrt(np.pi * (1 - q * q))
        return vals.sum(axis=1)

    xs = np.linspace(-14, 14, 4001)
    norm = np.sqrt(np.trapezoid(kernel(xs) ** 2, xs))

    def psi(x):
        return float(kernel(np.atleast_1d(x))[0]) / norm

    return psi


def wavefunction_from_table(path_or_array):
    """Ingest a sampled wavefunction as columns (x, re, im) with cubic interpolation."""
    from scipy.interpolate import CubicSpline

    data = np.loadtxt(path_or_array) if isinstance(path_or_array, str) else np.asarray(path_or_array)
    x, re, im = data[:, 0], data[:, 1], data[:, 2]
    sre = CubicSpline(x, re)
    sim = CubicSpline(x, im)
    lo, hi = x.min(), x.max()

    def psi(xx):
        if xx < lo or xx > hi:
            return 0.0
        return complex(sre(xx), sim(xx))

    return psi


# ---------------------------------------------------------------------------
# decomposition transformations


def reduce_to_cell(params: DecompositionParams, label, k, amp) -> KetTerm:
    """Express the stabilizer state |label, k> (arbitrary k) in the cell basis:
    crossing into the cell by the dual vector lbar(s) applies P(s) to the label."""
    k = np.asarray(k, dtype=float)
    rem, shift = params.cell.remainder(k)
    if np.max(np.abs(shift)) < 1e-14:
        return KetTerm(tuple(label), rem, amp)
    dims = params.code.dims
    phase = np.exp(1j * np.pi * (k @ omega(params.n_modes) @ shift))
    pauli = pauli_matrix(dims, params.code.dual_coefficients(shift))
    column = pauli[:, np.ravel_multi_index(label, dims)]
    row = int(np.flatnonzero(column)[0])
    new_label = tuple(int(x) for x in np.unravel_index(row, dims))
    return KetTerm(new_label, rem, amp * phase * column[row])


def cell_transform(state: SubsystemKet, new_cell: PrimitiveCell) -> SubsystemKet:
    """Rewrite the state over a different primitive cell of the same code."""
    new_params = DecompositionParams(state.params.code, new_cell)

    def fn(t: KetTerm):
        out = reduce_to_cell(new_params, t.label, t.k, t.amp)
        out.weight = t.weight
        return out

    return SubsystemKet(new_params, [fn(t) for t in state.terms])


def gaussian_transform(state: SubsystemKet, s_matrix) -> SubsystemKet:
    """Apply U_S: (Sigma, d, P) -> (S Sigma, d, S P), k -> S k, amplitudes unchanged."""
    s = np.asarray(s_matrix, dtype=float)
    assert_symplectic(s)
    code = state.params.code
    new_code = GkpCode(s @ code.sigma, code.dims)
    new_cell = TransformedCell(s, state.params.cell)
    new_params = DecompositionParams(new_code, new_cell)
    terms = [KetTerm(t.label, s @ t.k, t.amp, t.weight) for t in state.terms]
    return SubsystemKet(new_params, terms)


def _aj_matrix(n: int, j: int, lam: float) -> np.ndarray:
    d = np.ones(2 * n)
    d[j] = lam
    d[j + n] = 1 / lam
    return np.diag(d)


def unfold(state: SubsystemKet, j: int) -> SubsystemKet:
    """Absorb the logical label of mode j into the stabilizer subsystem.

    |mu_j (+) mu> (x) |k>  ->  e^{i pi mu_j mbar_j^T Om k} |0 (+) mu> (x) |k + mu_j mbar_j>
    with the cell unfolded d_j times along mbar_j.
    """
    code = state.params.code
    n = code.n_modes
    d_j = code.dims[j]
    mbar_j = code.mbar(j)
    new_dims = list(code.dims)
    new_dims[j] = 1
    new_code = GkpCode(code.sigma @ _aj_matrix(n, j, np.sqrt(d_j)), tuple(new_dims))
    offsets = [a * mbar_j for a in range(d_j)]

    def coarse_test(shift):
        s = code.dual_coefficients(shift)
        return s[j] % d_j == 0

    new_cell = UnionCell(state.params.cell, offsets, coarse_test)
    new_params = DecompositionParams(new_code, new_cell)
    om = omega(n)
    terms = []
    for t in state.terms:
        mu_j = t.label[j]
        label = list(t.label)
        label[j] = 0
        phase = np.exp(1j * np.pi * mu_j * (mbar_j @ om @ t.k))
        terms.append(KetTerm(tuple(label), t.k + mu_j * mbar_j, t.amp * phase, t.weight))
    return SubsystemKet(new_params, terms)


def fold(state: SubsystemKet, j: int, d: int) -> SubsystemKet:
    """Inverse of unfold: re-label d copies of the cell along mbar_j of the folded code.

    Requires the cell to be a union of d offset copies (as produced by
    unfold); raises a tiling error otherwise.
    """
    code = state.params.code
    n = code.n_modes
    if code.dims[j] != 1:
        raise ValueError(f"mode {j} is not qunaught; cannot fold")
    cell = state.params.cell
    if not isinstance(cell, UnionCell) or len(cell.offsets) != d:
        raise ValueError("cell does not tile as d offset copies along mbar_j; "
                         "cell_transform to a tiling cell first")
    new_dims = list(code.dims)
    new_dims[j] = d
    new_code = GkpCode(code.sigma @ _aj_matrix(n, j, 1 / np.sqrt(d)), tuple(new_dims))
    mbar_j = new_code.mbar(j)
    new_params = DecompositionParams(new_code, cell.base)
    om = omega(n)
    terms = []
    for t in state.terms:
        for a in range(d):
            kk = t.k - a * mbar_j
            if cell.base.contains(kk, tol=1e-12):
                label = list(t.label)
                label[j] = a
                phase = np.exp(-1j * np.pi * a * (mbar_j @ om @ kk))
                terms.append(KetTerm(tuple(label), kk, t.amp * phase, t.weight))
                break
        else:
            raise ValueError("term does not land in the base cell under any offset (tiling error)")
    return SubsystemKet(new_params, terms)


# ---------------------------------------------------------------------------
# logical Cliffords


CLIFFORD_TABLE = {
    "H": (np.array([[0, -1], [1, 0]]),
          np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
    "S": (np.array([[1, 0], [1, 1]]),
          np.diag([1.0, 1j])),
    "R": (np.array([[1, -1], [1, 0]]),
          np.array([[1, -1j], [1, 1j]]) / np.sqrt(2)),
    "CZ": (np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]),
           np.diag([1.0, 1.0, 1.0, -1.0])),
    "CNOT": (np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]),
             np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)),
}


def clifford_from_symplectic(n_a: np.ndarray, dims) -> np.ndarray:
    """Unitary A with A P(s) A^dag = P(N_A s), derived by solving the
    conjugation constraints on the Pauli generators (qubit codes)."""
    n_a = np.asarray(n_a)
    if not is_integral(n_a, 1e-12):
        raise ValueError("N_A must be integral")
    assert_symplectic(n_a.astype(float))
    n_a = np.round(n_a).astype(np.int64)
    two_n = n_a.shape[0]
    d_tot = int(np.prod(dims))
    constraints = []
    eye = np.eye(d_tot)
    for jj in range(two_n):
        e = np.zeros(two_n, dtype=np.int64)
        e[jj] = 1
        p_in = pauli_matrix(dims, e)
        p_out = pauli_matrix(dims, n_a @ e)
        # A p_in - p_out A = 0  ->  (p_in^T (x) I - I (x) p_out) vec(A) = 0
        constraints.append(np.kron(p_in.T, eye) - np.kron(eye, p_out))
    mat = np.vstack(constraints)
    _, sv, vh = np.linalg.svd(mat)
    null = vh[sv < 1e-9] if np.any(sv < 1e-9) else vh[-1:]
    a = null[0].conj().reshape(d_tot, d_tot, order="F")
    # normalize to a unitary and fix the global phase
    a = a * np.sqrt(d_tot / np.real(np.trace(a.conj().T @ a)))
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    a = a * (np.abs(a[idx]) / a[idx])
    if np.max(np.abs(a @ a.conj().T - np.eye(d_tot))) > 1e-8:
        raise ValueError("could not derive a unitary Clifford for N_A")
    return a


def apply_clifford(state: SubsystemKet, n_a, gate: np.ndarray = None) -> SubsystemKet:
    """Apply the logical Clifford with integral symplectic matrix N_A.

    The Gaussian unitary is U_{S_A} with S_A = Sigma N_A Sigma^{-1}; labels
    transform by the qudit gate (supplied or derived from N_A), k by S_A,
    and the result is folded back into the original cell, applying boundary
    Paulis where S_A k exits.
    """
    code = state.params.code
    n_a = np.asarray(n_a, dtype=float)
    if not is_integral(n_a, 1e-12):
        raise ValueError("N_A must be integral")
    assert_symplectic(n_a)
    s_a = code.sigma @ n_a @ np.linalg.inv(code.sigma)
    if gate is None:
        gate = clifford_from_symplectic(n_a, code.dims)
    dims = code.dims
    labels = list(itertools.product(*[range(d) for d in dims]))
    index = {lab: i for i, lab in enumerate(labels)}
    new_terms = []
    for t in state.terms:
        col = index[t.label]
        k_new = s_a @ t.k
        for row, lab in enumerate(labels):
            g = gate[row, col]
            if abs(g) < 1e-15:
                continue
            out = reduce_to_cell(state.params, lab, k_new, t.amp * g)
            out.weight = t.weight
            new_terms.append(out)
    return SubsystemKet(state.params, new_terms)


# ---------------------------------------------------------------------------
# partial trace and binned measurements


def partial_trace(states) -> tuple:
    """Decode: rho_L[mu, nu] = int_P dk amp_mu(k) amp_nu(k)^* (matching-k pairing).

    Accepts a SubsystemKet or an iterable of (probability, SubsystemKet) with
    identical decomposition parameters.  Returns (rho, raw_trace) with rho
    normalized to unit trace.
    """
    if isinstance(states, SubsystemKet):
        states = [(1.0, states)]
    states = list(states)
    params = states[0][1].params
    dims = params.code.dims
    labels = list(itertools.product(*[range(d) for d in dims]))
    index = {lab: i for i, lab in enumerate(labels)}
    d_tot = len(labels)
    rho = np.zeros((d_tot, d_tot), dtype=complex)
    for prob, st in states:
        if st.params.code.dims != dims:
            raise ValueError("mixture components have mismatched decomposition parameters")
        for terms in _group_by_k((t.k, t) for t in st.terms).values():
            for ta in terms:
                for tb in terms:
                    rho[index[ta.label], index[tb.label]] += (
                        prob * np.sqrt(ta.weight * tb.weight) * ta.amp * np.conj(tb.amp))
    raw = np.real(np.trace(rho))
    if raw <= 0:
        raise ValueError("state has zero norm")
    return rho / raw, raw


def _frac_half_open(x: float) -> float:
    """Remainder of x mod 1 in (-1/2, 1/2]."""
    return x - np.ceil(x - 0.5)


_BIN_VECTORS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def binned_pauli_action(pauli: str, params: DecompositionParams, k) -> int:
    """Sign of the binned Pauli operator B(P_bar) on basis states at k.

    +1 iff {k^T Omega mbar_eff}_1 in (-1/4, 1/4], with mbar_eff = mbar_1,
    mbar_1 + mbar_2, mbar_2 for X, Y, Z.
    """
    code = params.code
    if code.dims != (2,):
        raise ValueError("binned Pauli signs are defined for single-mode qubit codes")
    c1, c2 = _BIN_VECTORS[pauli]
    mbar = c1 * code.mbar(0) + c2 * code.mbar(1)
    frac = _frac_half_open(symplectic_product(np.asarray(k, dtype=float), mbar))
    return 1 if -0.25 < frac <= 0.25 else -1


_PAULI_2 = {name: pauli_matrix((2,), v) for name, v in [("I", (0, 0)), *_BIN_VECTORS.items()]}


@dataclass
class EntangledKet:
    """Superposition sum amp |e> (x) |mu, k> with an external qubit factor."""

    params: DecompositionParams
    terms: list  # of (e_label, mu_label, k, amp)


def binned_lst_decode(state) -> np.ndarray:
    """Logical state tomography with binned Pauli measurements.

    For a SubsystemKet returns the 2x2 reconstructed operator; for an
    EntangledKet returns the 4x4 operator on (external qubit) x (logical).
    No positivity guarantee: the underlying map is not completely positive.
    """
    params = state.params
    if isinstance(state, SubsystemKet):
        ext_dim = 1
        terms = [(0, t.label, t.k, t.amp * np.sqrt(t.weight)) for t in state.terms]
    else:
        ext_dim = 2
        terms = state.terms
    if params.code.dims != (2,):
        raise ValueError("binned LST is defined for single-mode qubit codes")

    groups = _group_by_k((t[2], t) for t in terms)
    m_mats = {}
    for name in ("I", "X", "Y", "Z"):
        pm = _PAULI_2[name]
        m = np.zeros((ext_dim, ext_dim), dtype=complex)
        for g in groups.values():
            sign = 1 if name == "I" else binned_pauli_action(name, params, g[0][2])
            for (e1, l1, _, a1) in g:
                for (e2, l2, _, a2) in g:
                    m[e1, e2] += sign * a1 * np.conj(a2) * pm[l2[0], l1[0]]
        m_mats[name] = m
    norm = np.real(np.trace(m_mats["I"]))
    out = np.zeros((2 * ext_dim, 2 * ext_dim), dtype=complex)
    for name in ("I", "X", "Y", "Z"):
        out += 0.5 * np.kron(m_mats[name], _PAULI_2[name])
    return out / norm
