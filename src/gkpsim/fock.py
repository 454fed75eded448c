"""Truncated-Fock-space oracle for single-mode square GKP codes.

Independent of the characteristic-function pipeline: codewords are built from
Hermite functions, noise is applied by explicit Kraus sums, and ideal
decoding integrates Zak-state overlaps over the Voronoi cell on a quadrature
grid.  Only intended for moderate squeezing; the main pipeline exists
precisely because this approach dies at large photon number.
"""

from __future__ import annotations

import numpy as np

from .lattice import GkpCode
from .metrics import ortho_matrix_from_gram


def hermite_function(n: int, x):
    """Orthonormal oscillator eigenfunction psi_n(x), the last row of hermite_functions_upto."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return hermite_functions_upto(n, x)[n]


def hermite_functions_upto(n_max: int, x):
    """psi_0..psi_{n_max} stacked along the first axis, by stable upward recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-x * x / 2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(2, n_max + 1):
        out[k] = np.sqrt(2.0 / k) * x * out[k - 1] - np.sqrt((k - 1) / k) * out[k - 2]
    return out


COMB_WINDOW = 30  # |s| bound of the codeword combs
ZAK_COMB_WINDOW = 20  # |s| bound of the Zak-state combs in the decoder
LOSS_KRAUS_MAX = 40  # largest photon number j lost in the truncated loss Kraus sum


def _damped_combs(delta: float, cutoff: int) -> np.ndarray:
    """Rows mu = 0, 1: e^{-Delta^2 n} * sum_s psi_n(sqrt(pi) (2 s + mu)) for n < cutoff."""
    s = np.arange(-COMB_WINDOW, COMB_WINDOW + 1)
    combs = [hermite_functions_upto(cutoff - 1, np.sqrt(np.pi) * (2 * s + mu)).sum(axis=1)
             for mu in (0, 1)]
    return np.exp(-delta ** 2 * np.arange(cutoff)) * np.array(combs)


def build_approx_codeword(mu: int, delta: float, cutoff: int) -> np.ndarray:
    """Normalized Fock amplitudes of the approximate codeword e^{-Delta^2 n} |mu_bar>.

    c_n is proportional to e^{-Delta^2 n} * sum_s psi_n(sqrt(pi) (2 s + mu)).
    Raises if the envelope tail beyond the cutoff holds more than 1e-12 of the norm.
    """
    if mu not in (0, 1):
        raise ValueError("square qubit codewords have mu in {0, 1}")
    amps = _damped_combs(delta, cutoff)[mu]
    norm = np.linalg.norm(amps)
    tail_mass = np.sum(np.abs(amps[-max(2, cutoff // 25):]) ** 2) / norm ** 2
    if tail_mass > 1e-12:
        raise ValueError(f"cutoff {cutoff} too small: tail mass {tail_mass:.2e}")
    return amps / norm


def codeword_gram(delta: float, cutoff: int) -> np.ndarray:
    """Unnormalized Gram <mu| e^{-2 Delta^2 n} |nu> of the envelope-damped combs.

    Overall scale is arbitrary (ideal combs are non-normalizable); ratios are
    what the orthonormalization consumes.
    """
    vecs = _damped_combs(delta, cutoff)
    return (vecs @ vecs.T).astype(complex)


def apply_loss(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Kraus sum of pure loss over j = 0..LOSS_KRAUS_MAX lost photons; raises
    if the truncated sum loses more than 1e-12 of the trace."""
    if gamma == 0:
        return rho.copy()
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    cutoff = rho.shape[0]
    ns = np.arange(cutoff)
    damp = (1 - gamma) ** (ns / 2.0)
    a_op = np.diag(np.sqrt(ns[1:].astype(float)), k=1)
    out = np.zeros_like(rho)
    k = np.diag(damp)
    ratio = gamma / (1 - gamma)
    for j in range(LOSS_KRAUS_MAX + 1):
        if j > 0:
            k = a_op @ k * np.sqrt(ratio / j)
        out += k @ rho @ k.conj().T
    defect = abs(np.trace(out) - np.trace(rho))
    if defect > 1e-12 * abs(np.trace(rho)):
        raise ValueError(f"loss Kraus sum not converged: trace defect {defect:.2e}")
    return out


def apply_dephasing(rho: np.ndarray, sigma: float) -> np.ndarray:
    """The average of e^{i phi n} rho e^{-i phi n} over phi ~ N(0, sigma^2), exactly:
    rho_nm -> rho_nm e^{-sigma^2 (n - m)^2 / 2}."""
    ns = np.arange(rho.shape[0])
    return rho * np.exp(-0.5 * sigma ** 2 * (ns[:, None] - ns[None, :]) ** 2)


def zak_fock_overlap_table(code: GkpCode, k1_vals, k2_vals, n_max: int) -> np.ndarray:
    """<mu, k | n> for the square qubit code on a (k1, k2) grid.

    Returns an array of shape (2, len(k1), len(k2), n_max + 1).  The bra of
    the stabilizer state |mu, k> = e^{i pi mu k2 / sqrt2} |k1 + mu/sqrt2, k2>_Zak
    gives

      <mu,k|n> = (4 pi)^{1/4} e^{-i pi mu k2/sqrt2} e^{-i pi kt k2}
                 sum_s e^{-2 sqrt2 i pi k2 s} psi_n(sqrt(2 pi)(kt + sqrt2 s)),

    with kt = k1 + mu/sqrt2.
    """
    if code.dims != (2,) or np.max(np.abs(code.sigma - np.eye(2))) > 1e-12:
        raise ValueError("the Fock oracle supports the single-mode square qubit code")
    k1_vals = np.asarray(k1_vals, dtype=float)
    k2_vals = np.asarray(k2_vals, dtype=float)
    ss = np.arange(-ZAK_COMB_WINDOW, ZAK_COMB_WINDOW + 1)
    out = np.zeros((2, len(k1_vals), len(k2_vals), n_max + 1), dtype=complex)
    pref = (4 * np.pi) ** 0.25
    for mu in (0, 1):
        kt = k1_vals + mu / np.sqrt(2)
        # psi values at sqrt(2 pi) (kt + sqrt2 s): shape (n, k1, s)
        pos = np.sqrt(2 * np.pi) * (kt[:, None] + np.sqrt(2) * ss[None, :])
        psi = hermite_functions_upto(n_max, pos)  # (n+1, k1, s)
        phase_s = np.exp(-2j * np.sqrt(2) * np.pi * np.outer(k2_vals, ss))  # (k2, s)
        comb = np.einsum("nks,ls->nkl", psi, phase_s)  # (n, k1, k2)
        phase = np.exp(-1j * np.pi * mu * k2_vals[None, :] / np.sqrt(2)) \
            * np.exp(-1j * np.pi * np.outer(kt, k2_vals))
        out[mu] = pref * np.transpose(comb * phase[None, :, :], (1, 2, 0))
    return out


def ideal_decode_batch(rhos, code: GkpCode, grid: int = 64):
    """Partial-trace decode of several Fock density matrices over the square
    Voronoi cell, sharing one Zak-overlap table.

    For each rho: rho_L[mu, nu] = int_V dk <mu,k| rho |nu,k> on a tensor
    Gauss-Legendre grid, normalized to unit trace.  Returns (list of rho_L,
    list of trace defects); raises if refining the grid by half moves any
    unnormalized result by more than 1e-7 (relative to max(1, its trace)).
    """
    rhos = [np.asarray(r, dtype=complex) for r in rhos]
    n_max = max(r.shape[0] for r in rhos) - 1

    def run(m):
        x, w = np.polynomial.legendre.leggauss(m)
        half = 2 ** -1.5
        tab = zak_fock_overlap_table(code, half * x, half * x, n_max)
        wkl = np.outer(half * w, half * w)[None, :, :, None]
        outs = []
        for rho in rhos:
            t = tab[..., :rho.shape[0]]
            # sum_{k,l,m} (t rho)[a,k,l,m] conj(t[b,k,l,m]) w_k w_l as one matrix product
            outs.append((t @ rho * wkl).reshape(2, -1) @ t.conj().reshape(2, -1).T)
        return outs

    coarse, raws = run(grid), run(grid + grid // 2)
    for raw, raw2 in zip(coarse, raws):
        if np.max(np.abs(raw - raw2)) > 1e-7 * max(1.0, abs(np.trace(raw2))):
            raise ValueError(
                f"decode grid {grid} not converged: refinement moved the result by "
                f"{np.max(np.abs(raw - raw2)):.2e}"
            )
    outs, defects = [], []
    for rho, raw in zip(rhos, raws):
        tr = np.real(np.trace(raw))
        defects.append(abs(tr - np.real(np.trace(rho))))
        outs.append(raw / tr)
    return outs, defects


def orthonormalized_codewords(delta: float, cutoff: int):
    """(Fock representations of the Loewdin-orthonormalized codeword pair,
    the Loewdin matrix C that forms them from the damped combs)."""
    vecs = _damped_combs(delta, cutoff)
    c = ortho_matrix_from_gram((vecs @ vecs.T).astype(complex))
    return c @ vecs, c
