import numpy as np
import pytest

from gkpsim.fock import ideal_decode_batch
from gkpsim.lattice import BoxCell, VoronoiCell, hexagonal_code, square_code, voronoi_box
from gkpsim.metrics import bloch_and_octahedron
from gkpsim.states import (
    CLIFFORD_TABLE,
    DecompositionParams,
    EntangledKet,
    KetTerm,
    SubsystemKet,
    apply_clifford,
    binned_lst_decode,
    binned_pauli_action,
    cell_transform,
    clifford_from_symplectic,
    decompose_wavefunction,
    fold,
    gaussian_transform,
    partial_trace,
    position_gaussian_wavefunction,
    square_cell_grid,
    unfold,
    vacuum_wavefunction,
    wavefunction_from_table,
    zak_position_amplitudes,
)
from gkpsim.symplectic import omega, rotation, symplectic_product

SQ = square_code()
CELL = voronoi_box(SQ)
PARAMS = DecompositionParams(SQ, CELL)
HALF = 2 ** -1.5


def _random_ket(rng, n_terms=15):
    terms = []
    for _ in range(n_terms):
        k, _ = CELL.remainder(rng.normal(size=2))
        terms.append(KetTerm((int(rng.integers(0, 2)),), 0.999 * k,
                             rng.normal() + 1j * rng.normal()))
    return SubsystemKet(PARAMS, terms)


# ---------------------------------------------------------------------------
# Zak states


def test_zak_amplitudes_at_origin():
    a = np.sqrt(2)
    peaks = zak_position_amplitudes(0.0, 0.0, a, window=4)
    amps = [amp for _, amp in peaks]
    assert np.allclose(amps, amps[0])
    xs = sorted(x for x, _ in peaks)
    assert np.allclose(np.diff(xs), np.sqrt(2 * np.pi) * a)


def test_zak_quasi_periodicity():
    a, k1, k2 = np.sqrt(2), 0.17, -0.23
    z1 = {round(x, 9): amp for x, amp in zak_position_amplitudes(k1, k2, a, 6)}
    z2 = {round(x, 9): amp for x, amp in zak_position_amplitudes(k1 + a, k2, a, 6)}
    common = sorted(set(z1) & set(z2))
    assert len(common) > 8
    expected = np.exp(-1j * np.pi * a * k2)
    for x in common:
        assert z2[x] / z1[x] == pytest.approx(expected, abs=1e-12)


def test_zak_one_ket_odd_peaks():
    # |1_bar> = |1/sqrt2, 0>_sqrt2 has peaks at odd multiples of sqrt(pi)
    peaks = zak_position_amplitudes(1 / np.sqrt(2), 0.0, np.sqrt(2), window=5)
    for x, _ in peaks:
        ratio = x / np.sqrt(np.pi)
        assert round(ratio) % 2 == 1 or round(ratio) % 2 == -1
        assert ratio == pytest.approx(round(ratio), abs=1e-12)


# ---------------------------------------------------------------------------
# wavefunction decomposition


def test_decompose_vacuum_matches_fock_oracle():
    st = decompose_wavefunction(vacuum_wavefunction(), PARAMS, square_cell_grid(40))
    rho, _ = partial_trace(st)
    r, inside = bloch_and_octahedron(rho)
    fock_rho = np.zeros((60, 60), dtype=complex)
    fock_rho[0, 0] = 1.0
    [decoded], _ = ideal_decode_batch([fock_rho], SQ, grid=48)
    r_fock, inside_fock = bloch_and_octahedron(decoded)
    assert np.max(np.abs(r - r_fock)) < 1e-8
    assert inside == inside_fock is False


def test_decompose_vacuum_is_normalized():
    st = decompose_wavefunction(vacuum_wavefunction(), PARAMS, square_cell_grid(40))
    assert st.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_decompose_narrow_gaussian_label_and_phase():
    # a narrow packet at x near sqrt(pi): logical label 1, k1 = k_x, and the
    # k2-dependence carries the phase e^{-i pi (k_x + sqrt2 n_x) k2}
    x0 = np.sqrt(np.pi) + 0.05 * np.sqrt(2 * np.pi)
    k_x, n_x = 0.05, 1
    psi = position_gaussian_wavefunction(x0, 0.02)
    grid = [(np.array([k_x, k2]), 1.0) for k2 in np.linspace(-HALF * 0.95, HALF * 0.95, 7)]
    st = decompose_wavefunction(psi, PARAMS, grid, window=14)
    by_label = {}
    for t in st.terms:
        by_label.setdefault(t.label, []).append(t)
    mass = {lab: sum(abs(t.amp) ** 2 for t in ts) for lab, ts in by_label.items()}
    assert mass[(1,)] > 1e6 * mass.get((0,), 1e-300)
    ts = sorted(by_label[(1,)], key=lambda t: t.k[1])
    amps = np.array([t.amp for t in ts])
    k2s = np.array([t.k[1] for t in ts])
    expected = np.exp(-1j * np.pi * (k_x + np.sqrt(2) * n_x) * k2s)
    ratio = amps / expected
    assert np.max(np.abs(ratio / ratio[0] - 1)) < 1e-6
    # |amp| uniform in k2
    assert np.max(np.abs(np.abs(amps) / np.abs(amps[0]) - 1)) < 1e-6


def test_decompose_ideal_codeword_concentrates():
    from gkpsim.states import approximate_codeword_wavefunction

    psi = approximate_codeword_wavefunction(0, 0.2)
    st = decompose_wavefunction(psi, PARAMS, square_cell_grid(24))
    rho, _ = partial_trace(st)
    assert np.real(rho[0, 0]) > 0.999
    # amplitude concentrated near k = 0
    best = max(st.terms, key=lambda t: abs(t.amp))
    assert best.label == (0,)
    assert np.linalg.norm(best.k) < 0.1


def test_decompose_tail_violation_raises():
    flat = lambda x: 1.0  # non-decaying wavefunction
    with pytest.raises(ValueError, match="tail"):
        decompose_wavefunction(flat, PARAMS, [(np.zeros(2), 1.0)], window=6)


def test_wavefunction_table_ingestion(tmp_path):
    xs = np.linspace(-8, 8, 2001)
    vac = vacuum_wavefunction()
    table = np.stack([xs, vac(xs), np.zeros_like(xs)], axis=1)
    path = tmp_path / "wf.txt"
    np.savetxt(path, table)
    psi = wavefunction_from_table(str(path))
    for x in (-1.3, 0.0, 0.7):
        assert psi(x) == pytest.approx(vac(x), abs=1e-9)
    assert psi(50.0) == 0.0


# ---------------------------------------------------------------------------
# transformations


def test_cell_transform_identity():
    rng = np.random.default_rng(2)
    st = _random_ket(rng)
    out = cell_transform(st, CELL)
    for a, b in zip(st.terms, out.terms):
        assert a.label == b.label
        assert np.allclose(a.k, b.k)
        assert a.amp == pytest.approx(b.amp)


def test_cell_transform_shifted_square_picks_up_x():
    # shifting the cell by mbar_1/2: terms with k1 > 0 wrap through the X
    # boundary with the quasi-periodic phase e^{i pi k^T Omega mbar_1}
    shift = 1 / (2 * np.sqrt(2))
    new_cell = BoxCell([(-HALF + shift, HALF + shift), (-HALF, HALF)])
    om = omega(1)
    mbar1 = SQ.mbar(0)
    for k1, k2 in [(0.1, 0.2), (-0.1, -0.3), (0.3, 0.0)]:
        st = SubsystemKet(PARAMS, [KetTerm((0,), np.array([k1, k2]), 1.0 + 0j)])
        out = cell_transform(st, new_cell)
        t = out.terms[0]
        if k1 > shift - HALF + 1e-12 or np.isclose(k1, shift - HALF):
            assert t.label == (0,) and t.amp == pytest.approx(1.0)
        else:
            assert t.label == (1,)
            expect = np.exp(1j * np.pi * (np.array([k1, k2]) @ om @ (-mbar1)))
            assert t.amp == pytest.approx(expect)


def test_cell_transform_boundary_pauli_phase_is_exact():
    # k2 = 0.4 lies beyond the Z face, so the term crosses back by mbar_2 with
    # k^T Omega shift = 0: the amplitude is Z's eigenvalue on |1>, exactly -1
    st = SubsystemKet(PARAMS, [KetTerm((1,), np.array([0.0, 0.4]), 1)])
    t = cell_transform(st, CELL).terms[0]
    assert t.label == (1,)
    assert all(type(x) is int for x in t.label)
    assert t.amp == -1


def test_cell_transform_round_trip():
    rng = np.random.default_rng(3)
    st = _random_ket(rng, 30)
    shifted = BoxCell([(-HALF + 0.2, HALF + 0.2), (-HALF - 0.1, HALF - 0.1)])
    back = cell_transform(cell_transform(st, shifted), CELL)
    for a, b in zip(st.terms, back.terms):
        assert a.label == b.label
        assert np.allclose(a.k, b.k, atol=1e-12)
        assert a.amp == pytest.approx(b.amp, abs=1e-12)


def test_gaussian_transform_identity_and_composition():
    rng = np.random.default_rng(4)
    st = _random_ket(rng)
    out = gaussian_transform(st, np.eye(2))
    assert np.allclose(out.params.code.sigma, SQ.sigma)
    s1 = rotation(0.4)
    s2 = np.array([[1.1, 0.0], [0.3, 1 / 1.1]])
    a = gaussian_transform(gaussian_transform(st, s1), s2)
    b = gaussian_transform(st, s2 @ s1)
    assert np.allclose(a.params.code.sigma, b.params.code.sigma)
    for ta, tb in zip(a.terms, b.terms):
        assert np.allclose(ta.k, tb.k)
        assert ta.amp == tb.amp


def test_gaussian_transform_square_to_hex_parameters():
    hexc = hexagonal_code()
    rng = np.random.default_rng(5)
    st = _random_ket(rng, 5)
    out = gaussian_transform(st, hexc.sigma)
    assert np.allclose(out.params.code.sigma, hexc.sigma @ SQ.sigma)
    assert out.params.code.dims == (2,)


def test_unfold_square_gives_zak_cell():
    rng = np.random.default_rng(6)
    st = _random_ket(rng, 5)
    out = unfold(st, 0)
    assert out.params.code.dims == (1,)
    # Sigma A(sqrt 2) = diag(sqrt2, 1/sqrt2): the Zak decomposition Z_{sqrt2}
    assert np.allclose(out.params.code.sigma, np.diag([np.sqrt(2), 1 / np.sqrt(2)]))


def test_unfold_term_action():
    k = np.array([0.1, -0.2])
    st = SubsystemKet(PARAMS, [KetTerm((1,), k, 1.0 + 0j)])
    out = unfold(st, 0)
    t = out.terms[0]
    mbar1 = SQ.mbar(0)
    assert np.allclose(t.k, k + mbar1)
    assert t.amp == pytest.approx(np.exp(1j * np.pi * (mbar1 @ omega(1) @ k)))
    assert t.label == (0,)


def test_fold_unfold_round_trip():
    rng = np.random.default_rng(7)
    st = _random_ket(rng, 25)
    back = fold(unfold(st, 0), 0, 2)
    for a, b in zip(st.terms, back.terms):
        assert a.label == b.label
        assert np.allclose(a.k, b.k, atol=1e-12)
        assert a.amp == pytest.approx(b.amp, abs=1e-12)


def test_fold_requires_tiling_cell():
    rng = np.random.default_rng(8)
    st = _random_ket(rng, 3)
    unfolded = unfold(st, 0)
    squashed = SubsystemKet(unfolded.params.__class__(unfolded.params.code, CELL),
                            unfolded.terms)
    with pytest.raises(ValueError, match="tile|tiling"):
        fold(squashed, 0, 2)


def test_stabilizer_eigenvalue_law():
    # the stabilizer phase of a basis term is e^{2 i pi k^T Omega m_J}
    rng = np.random.default_rng(9)
    for code in (SQ, hexagonal_code()):
        cell = voronoi_box(code) if code is SQ else VoronoiCell(code)
        for _ in range(20):
            k, _ = cell.remainder(rng.normal(size=2))
            for j in range(2):
                phase = np.exp(2j * np.pi * symplectic_product(k, code.m(j)))
                assert abs(phase) == pytest.approx(1.0)
                # shifting k by the stabilizer-generated dual vector m_J
                # leaves the stabilizer eigenvalue invariant
                k2, _ = cell.remainder(k + code.mbar(j))
                phase2 = np.exp(2j * np.pi * symplectic_product(k2, code.m(j)))
                assert phase2 == pytest.approx(phase, abs=1e-9)


def test_pauli_displacement_is_tensor_action():
    # applying the logical X displacement mbar_1 changes labels and phases
    # but never |amp| as a function of k
    rng = np.random.default_rng(10)
    st = _random_ket(rng, 20)
    mbar1 = SQ.mbar(0)
    om = omega(1)
    for t in st.terms:
        shifted = KetTerm(t.label, t.k + mbar1, t.amp * np.exp(1j * np.pi * (t.k @ om @ mbar1)))
        from gkpsim.states import reduce_to_cell

        reduced = reduce_to_cell(PARAMS, shifted.label, shifted.k, shifted.amp)
        assert np.allclose(reduced.k, t.k, atol=1e-12)
        assert abs(reduced.amp) == pytest.approx(abs(t.amp), abs=1e-12)
        assert reduced.label == ((t.label[0] + 1) % 2,)


# ---------------------------------------------------------------------------
# logical Cliffords


def test_clifford_table_consistency():
    for name, (n_a, gate) in CLIFFORD_TABLE.items():
        dims = (2,) * (n_a.shape[0] // 2)
        derived = clifford_from_symplectic(n_a, dims)
        ratio = derived @ np.linalg.inv(gate)
        phase = ratio[0, 0]
        assert abs(abs(phase) - 1) < 1e-9
        assert np.max(np.abs(ratio - phase * np.eye(len(gate)))) < 1e-9


def test_clifford_rejects_bad_input():
    with pytest.raises(ValueError):
        clifford_from_symplectic(np.array([[1.0, 0.5], [0.0, 1.0]]), (2,))


def test_hadamard_square_tensor_action():
    # pure tensor action: no boundary Paulis anywhere in V_sq
    n_a, gate = CLIFFORD_TABLE["H"]
    rng = np.random.default_rng(11)
    for _ in range(50):
        k, _ = CELL.remainder(rng.normal(size=2))
        k = 0.999 * k
        st = SubsystemKet(PARAMS, [KetTerm((0,), k, 1.0 + 0j)])
        out = apply_clifford(st, n_a, gate)
        # H|0> = (|0> + |1>)/sqrt2 with both terms at the rotated k, no extra phases
        assert len(out.terms) == 2
        for t in out.terms:
            assert np.allclose(t.k, n_a.astype(float) @ k, atol=1e-12)
            assert t.amp == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_phase_gate_square_action():
    # S_bar |mu, k1, k2> = i^mu |mu, k1, k1+k2>, with a Z error iff k1+k2
    # leaves (-2^{-3/2}, 2^{-3/2}]
    n_a, gate = CLIFFORD_TABLE["S"]
    for mu in (0, 1):
        st = SubsystemKet(PARAMS, [KetTerm((mu,), np.array([0.1, 0.1]), 1.0 + 0j)])
        t = apply_clifford(st, n_a, gate).terms[0]
        assert t.label == (mu,)
        assert np.allclose(t.k, [0.1, 0.2])
        assert t.amp == pytest.approx(1j ** mu)
    for mu in (0, 1):
        st = SubsystemKet(PARAMS, [KetTerm((mu,), np.array([0.3, 0.2]), 1.0 + 0j)])
        t = apply_clifford(st, n_a, gate).terms[0]
        assert t.label == (mu,)
        assert np.allclose(t.k, [0.3, 0.5 - 1 / np.sqrt(2)])
        expect = (1j ** mu) * np.exp(1j * np.pi * 0.3 / np.sqrt(2)) * (-1) ** mu
        assert t.amp == pytest.approx(expect, abs=1e-12)


def test_hexagonal_r_gate_tensor_action():
    hexc = hexagonal_code()
    cell = VoronoiCell(hexc)
    params = DecompositionParams(hexc, cell)
    n_a, gate = CLIFFORD_TABLE["R"]
    s_a = hexc.sigma @ n_a.astype(float) @ np.linalg.inv(hexc.sigma)
    assert np.allclose(s_a, rotation(np.pi / 3), atol=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(50):
        k, _ = cell.remainder(rng.normal(size=2))
        k = 0.999 * k
        st = SubsystemKet(params, [KetTerm((0,), k, 1.0 + 0j)])
        out = apply_clifford(st, n_a, gate)
        for t in out.terms:
            assert np.allclose(t.k, s_a @ k, atol=1e-9)  # never wraps


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_product_state():
    psi = np.array([0.6, 0.8j])
    st = SubsystemKet(PARAMS, [KetTerm((0,), np.zeros(2), psi[0]),
                               KetTerm((1,), np.zeros(2), psi[1])])
    rho, raw = partial_trace(st)
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)
    assert raw == pytest.approx(1.0)


def _phi_state(sign, order=64):
    # (|0>_q + |sign sqrt(pi)>_q)/sqrt2 on a k2 quadrature grid
    x, w = np.polynomial.legendre.leggauss(order)
    terms = []
    for k2, wt in zip(HALF * x, HALF * w):
        terms.append(KetTerm((0,), np.array([0.0, k2]), 1 / np.sqrt(2), wt))
        terms.append(KetTerm((1,), np.array([0.0, k2]),
                             np.exp(-1j * np.pi * np.sqrt(2) * sign * k2) / np.sqrt(2), wt))
    return SubsystemKet(PARAMS, terms)


def test_partial_trace_phi_plus_minus():
    expect = 0.5 * np.eye(2) + (1 / np.pi) * np.array([[0, 1], [1, 0]])
    rho_p, _ = partial_trace(_phi_state(+1))
    rho_m, _ = partial_trace(_phi_state(-1))
    assert np.max(np.abs(rho_p - expect)) < 1e-9
    assert np.max(np.abs(rho_m - expect)) < 1e-9
    assert np.max(np.abs(rho_p - rho_m)) < 1e-12


def test_partial_trace_rejects_mismatched_mixture():
    st1 = SubsystemKet(PARAMS, [KetTerm((0,), np.zeros(2), 1.0)])
    hexc = hexagonal_code()
    st2 = SubsystemKet(DecompositionParams(square_code(3), voronoi_box(square_code(3))),
                       [KetTerm((0,), np.zeros(2), 1.0)])
    with pytest.raises(ValueError):
        partial_trace([(0.5, st1), (0.5, st2)])


# ---------------------------------------------------------------------------
# binned measurements


def test_binned_pauli_square_signs():
    rng = np.random.default_rng(13)
    for _ in range(300):
        k, _ = CELL.remainder(rng.normal(size=2))
        k = 0.999 * k
        assert binned_pauli_action("X", PARAMS, k) == 1
        assert binned_pauli_action("Z", PARAMS, k) == 1
    k_neg = np.array([-1 / (3 * np.sqrt(2)), 1 / (3 * np.sqrt(2))])
    assert binned_pauli_action("Y", PARAMS, k_neg) == -1


def test_binned_pauli_hexagonal_negative_regions():
    hexc = hexagonal_code()
    cell = VoronoiCell(hexc)
    params = DecompositionParams(hexc, cell)
    rng = np.random.default_rng(14)
    found = {p: False for p in "XYZ"}
    for _ in range(3000):
        k, _ = cell.remainder(rng.normal(size=2))
        for p in "XYZ":
            if binned_pauli_action(p, params, 0.999 * k) == -1:
                found[p] = True
    assert all(found.values())


def test_binned_lst_ideal_codestate_matches_partial_trace():
    psi = np.array([0.6, 0.8j])
    st = SubsystemKet(PARAMS, [KetTerm((0,), np.zeros(2), psi[0]),
                               KetTerm((1,), np.zeros(2), psi[1])])
    lst = binned_lst_decode(st)
    rho, _ = partial_trace(st)
    assert np.max(np.abs(lst - rho)) < 1e-12


def test_binned_lst_unshaded_region_matches_partial_trace():
    psi = np.array([0.6, 0.8j])
    for k in (np.array([0.05, 0.08]), np.array([-0.1, -0.05])):
        st = SubsystemKet(PARAMS, [KetTerm((0,), k, psi[0]), KetTerm((1,), k, psi[1])])
        assert np.max(np.abs(binned_lst_decode(st) - partial_trace(st)[0])) < 1e-12


def test_binned_lst_bell_example_not_positive():
    v0 = np.array([-1.0, 1.0]) / (3 * np.sqrt(2))
    ent = EntangledKet(PARAMS, [(0, (0,), v0, 1 / np.sqrt(2)),
                                (1, (1,), v0, 1 / np.sqrt(2))])
    op = binned_lst_decode(ent)
    expect = 0.5 * np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.max(np.abs(op - expect)) < 1e-12
    evals, evecs = np.linalg.eigh(op)
    assert evals[0] == pytest.approx(-0.5, abs=1e-12)
    vec = evecs[:, 0]
    target = np.array([0, 1, -1, 0]) / np.sqrt(2)
    overlap = abs(vec @ target)
    assert overlap == pytest.approx(1.0, abs=1e-12)
