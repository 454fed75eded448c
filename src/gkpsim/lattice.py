"""GKP codes as symplectic lattices: dual lattices, primitive cells, decoding geometry
and the integral symplectic matrices of the logical Cliffords.

A code is specified by a symplectic matrix Sigma and a dimension vector d.
Stabilizer generators are m_J = sqrt(d_{J mod n}) * (Sigma column J) and the
dual (logical) generators are mbar_J = m_J / d_{J mod n}.  Primitive cells of
the dual lattice define decoders via the remainder map v = lbar + {v}_P.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass

import numpy as np

from .symplectic import (
    INTEGRALITY_TOL,
    assert_symplectic,
    is_integral,
)


# ---------------------------------------------------------------------------
# codes


def _integer(value, what: str) -> int:
    """value as an int; a bool or a number that is not integral raises a ValueError naming what."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """value as a float; a bool or a non-number raises a ValueError naming what."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GkpCode:
    """Multi-mode GKP code (Sigma, d)."""

    sigma: np.ndarray
    dims: tuple

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sigma)
        dims = self.dims if np.ndim(self.dims) else (self.dims,)
        object.__setattr__(self, "dims", tuple(_integer(d, "each entry of dims") for d in dims))
        assert_symplectic(sigma, name="Sigma")
        if len(self.dims) != sigma.shape[0] // 2:
            raise ValueError("dims must have one entry per mode")
        if any(d < 1 for d in self.dims):
            raise ValueError("dimensions must be >= 1")

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    @property
    def d_total(self) -> int:
        return int(np.prod(self.dims))

    def dim_of(self, j_col: int) -> int:
        return self.dims[j_col % self.n_modes]

    def generator_matrix(self) -> np.ndarray:
        """Lattice generator matrix M with rows m_J^T."""
        scale = np.sqrt(np.array([self.dim_of(j) for j in range(2 * self.n_modes)], dtype=float))
        return (self.sigma * scale[np.newaxis, :]).T

    def dual_basis(self) -> np.ndarray:
        """Matrix whose columns are the dual generators mbar_J."""
        scale = np.sqrt(np.array([self.dim_of(j) for j in range(2 * self.n_modes)], dtype=float))
        return self.sigma / scale[np.newaxis, :]

    def m(self, j: int) -> np.ndarray:
        return self.generator_matrix()[j]

    def mbar(self, j: int) -> np.ndarray:
        return self.dual_basis()[:, j]

    def dual_vector(self, s) -> np.ndarray:
        """lbar(s) = sum_J s_J mbar_J."""
        return self.dual_basis() @ np.asarray(s, dtype=float)

    def dual_coefficients(self, v) -> np.ndarray:
        """Integer coefficients s with lbar(s) = v; raises if v is not a dual vector."""
        s = np.linalg.solve(self.dual_basis(), np.asarray(v, dtype=float))
        if not is_integral(s, INTEGRALITY_TOL):
            raise ValueError(f"vector is not in the dual lattice (coefficients {s})")
        return np.round(s).astype(np.int64)

    def pauli_class(self, s) -> str:
        """Logical Pauli label of the dual vector lbar(s), e.g. 'I', 'X', 'Z', 'Y', 'XZ'.

        Qunaught modes never contribute.  Multi-qubit labels concatenate per
        encoded mode in order.
        """
        s = np.asarray(s, dtype=np.int64)
        n = self.n_modes
        parts = []
        for j, d in enumerate(self.dims):
            if d == 1:
                continue
            x = int(s[j] % d)
            z = int(s[j + n] % d)
            if x == 0 and z == 0:
                parts.append("I")
            elif z == 0:
                parts.append("X")
            elif x == 0:
                parts.append("Z")
            elif x == z:
                parts.append("Y")
            else:
                parts.append("M")  # mixed power, qudits only
        if not parts:
            return "I"
        return "".join(parts)


def square_code(d: int = 2, n: int = 1) -> GkpCode:
    """n independent square qudit codes (Sigma = I)."""
    return GkpCode(np.eye(2 * n), (d,) * n)


def hexagonal_code(d: int = 2) -> GkpCode:
    sigma = np.array([[(4 / 3) ** 0.25, -(12 ** -0.25)], [0.0, (3 / 4) ** 0.25]])
    return GkpCode(sigma, (d,))


def rectangular_code(alpha: float, d: int = 2) -> GkpCode:
    return GkpCode(np.diag([alpha, 1 / alpha]), (d,))


def repetition_code(n: int = 3, alpha: float = 3 ** -0.25) -> GkpCode:
    """n-mode rectangular-GKP repetition qubit code, dims (2, 1, ..., 1)."""
    if n < 1:
        raise ValueError("need at least one mode")
    sq = np.zeros((n, n))
    sq[:, 0] = 1.0
    for j in range(1, n):
        sq[j, j] = np.sqrt(2)
    sp = np.zeros((n, n))
    sp[0, 0] = 1.0
    for j in range(1, n):
        sp[0, j] = -1 / np.sqrt(2)
        sp[j, j] = 1 / np.sqrt(2)
    sigma = np.block([[alpha * sq, np.zeros((n, n))], [np.zeros((n, n)), sp / alpha]])
    return GkpCode(sigma, (2,) + (1,) * (n - 1))


# ---------------------------------------------------------------------------
# primitive cells

MAX_WINDOW = 2 ** 20  # the most coefficient offsets that one VoronoiCell search enumerates


class PrimitiveCell:
    """Region P with a remainder map v = shift + {v}_P, shift in the dual lattice."""

    dim: int

    def remainder(self, v):
        """Return ({v}_P, shift).  Total and deterministic."""
        raise NotImplementedError

    def contains(self, v, tol: float = 1e-12) -> bool:
        rem, shift = self.remainder(np.asarray(v, dtype=float))
        return bool(np.max(np.abs(shift)) <= tol)


class BoxCell(PrimitiveCell):
    """Cartesian product of half-open intervals (lo_i, hi_i], tiling under side-length shifts."""

    def __init__(self, intervals):
        self.intervals = [(float(lo), float(hi)) for lo, hi in intervals]
        if any(hi <= lo for lo, hi in self.intervals):
            raise ValueError("intervals must be nonempty")
        self.dim = len(self.intervals)

    @classmethod
    def centered(cls, sides):
        return cls([(-s / 2, s / 2) for s in sides])

    def remainder(self, v):
        v = np.asarray(v, dtype=float)
        rem = np.empty_like(v)
        shift = np.zeros_like(v)
        for i, (lo, hi) in enumerate(self.intervals):
            period = hi - lo
            k = np.ceil((v[i] - hi) / period)
            rem[i] = v[i] - k * period
            shift[i] = k * period
        return rem, shift

    def contains(self, v, tol: float = 0.0) -> bool:
        v = np.asarray(v, dtype=float)
        return all(lo + tol < v[i] <= hi + tol for i, (lo, hi) in enumerate(self.intervals))

    def vertices(self) -> np.ndarray:
        corners = itertools.product(*[(lo, hi) for lo, hi in self.intervals])
        return np.array(list(corners), dtype=float)

    def axis_shift_vectors(self) -> np.ndarray:
        """Dual vectors associated with crossing each +face (rows)."""
        return np.diag([hi - lo for lo, hi in self.intervals])


def voronoi_box(code: GkpCode) -> BoxCell:
    """Axis-aligned Voronoi cell for codes whose dual basis is diagonal."""
    b = code.dual_basis()
    if np.max(np.abs(b - np.diag(np.diag(b)))) > 1e-12:
        raise ValueError("dual basis is not axis-aligned; use VoronoiCell")
    return BoxCell.centered(np.abs(np.diag(b)))


class VoronoiCell(PrimitiveCell):
    """Voronoi cell of the dual lattice, with lexicographic tie-breaking.

    Nearest-point searches prove their answer: with sigma_min the smallest
    singular value of the dual basis, a lattice point whose coefficients lie
    outside +-r of the rounded solution is at least sigma_min * (r + 1/2)
    from the point being reduced, so each search sizes its window from the
    distance it has found.  Squared distances within 1e-12 of the minimum
    count as ties.
    """

    def __init__(self, code: GkpCode):
        self.basis = code.dual_basis()
        self.dim = self.basis.shape[0]
        self._sigma_min = np.linalg.svd(self.basis, compute_uv=False).min()
        self._windows = {}  # r -> lattice points of the offsets in +-r, lexicographic
        self._relevant = self._vertices = self._slabs = None

    def _nearest(self, v, tol: float) -> np.ndarray:
        """Every dual vector whose squared distance to v is within tol of the
        smallest, one row each, in lexicographic order of coefficient offset
        from the rounded solution.  The +-1 window gives a first candidate; a
        wider window is searched only when its distance does not prove the answer."""
        center = self.basis @ np.round(np.linalg.solve(self.basis, v))
        r = 1
        while True:
            if r not in self._windows:
                size = (2 * r + 1) ** self.dim
                if size > MAX_WINDOW:
                    raise ValueError(f"a proven nearest-point search needs the window of +-{r} in {self.dim} "
                                     f"dimensions, {size} offsets, above MAX_WINDOW = {MAX_WINDOW}")
                offs = np.indices((2 * r + 1,) * self.dim).reshape(self.dim, -1).T - r
                self._windows[r] = offs @ self.basis.T
            cands = center + self._windows[r]
            d2 = np.sum((v - cands) ** 2, axis=1)
            # the smallest radius with sigma_min (radius + 1/2) > sqrt(best + tol)
            proven = int(np.sqrt(d2.min() + tol) / self._sigma_min + 0.5)
            if proven <= r:
                return cands[d2 <= d2.min() + tol]
            r = proven

    def remainder(self, v):
        v = np.asarray(v, dtype=float)
        shift = self._nearest(v, 1e-12)[0]
        return v - shift, shift

    def relevant_vectors(self) -> np.ndarray:
        """Voronoi-relevant (facet-defining) dual vectors, one row each.

        Uses the coset criterion: r is relevant iff +-r are the unique
        shortest vectors of the coset r + 2*Lambda.  The shortest vectors of
        the coset Bc + 2*Lambda are Bc + 2x for the x nearest to -Bc/2.
        """
        if self._relevant is None:
            rel = []
            for c in list(itertools.product((0, 1), repeat=self.dim))[1:]:
                bc = self.basis @ np.array(c, dtype=float)
                shortest = bc + 2.0 * self._nearest(-bc / 2, 1e-9 / 4)
                if len(shortest) < 2:
                    raise RuntimeError("coset minimum is not a +- pair")
                if len(shortest) == 2:  # a third minimizer makes the pair not relevant
                    # the later of the pair is Bc itself when Bc is shortest
                    rel += [shortest[1], -shortest[1]]
            self._relevant = np.array(rel)
        return self._relevant

    def contains(self, v, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=float)
        rels = self.relevant_vectors()
        return bool(np.all(v @ rels.T <= 0.5 * np.sum(rels ** 2, axis=1) + tol))

    def vertices_2d(self) -> np.ndarray:
        """Polygon vertices (counterclockwise) for 2D cells: each solves
        r . x = |r|^2 / 2 for two relevant vectors adjacent in angle.  Built
        once per cell, read-only."""
        if self.dim != 2:
            raise ValueError("vertices_2d requires a 2D cell")
        if self._vertices is None:
            rels = self.relevant_vectors()
            rels = rels[np.argsort(np.arctan2(rels[:, 1], rels[:, 0]))]
            facets = np.stack([rels, np.roll(rels, -1, axis=0)], axis=1)
            self._vertices = np.linalg.solve(facets, 0.5 * np.sum(facets ** 2, axis=2)[:, :, None])[:, :, 0]
            self._vertices.flags.writeable = False
        return self._vertices

    def slabs_2d(self) -> np.ndarray:
        """The vertical slabs of a 2D cell, one column each: rows (left,
        right, low slope, low intercept, high slope, high intercept), so
        that slab k runs over left <= x <= right between the facets
        y = slope x + intercept below and above it.  The cuts are the vertex
        x-coordinates and x = 0, the lattice point; cuts within 1e-12 of the
        cell width merge.  Built once per cell, read-only."""
        if self._slabs is None:
            xs = self.vertices_2d()[:, 0]
            left, right = xs.min(), xs.max()
            cuts = [left]
            for c in np.sort(np.append(xs, 0.0)):
                if c - cuts[-1] > 1e-12 * (right - left):
                    cuts.append(c)
            cuts[-1] = right
            a, b = np.array(cuts[:-1]), np.array(cuts[1:])
            # the facet r . v = |r|^2 / 2 is y = slope x + icpt; at a slab's
            # midpoint the lowest facet above it and the highest below it bound it;
            # a facet whose slope overflows is vertical, so it bounds no slab
            rels = self.relevant_vectors()
            with np.errstate(divide="ignore", over="ignore"):
                slope, icpt = -rels[:, 0] / rels[:, 1], 0.5 * np.sum(rels ** 2, axis=1) / rels[:, 1]
            keep = np.isfinite(slope) & np.isfinite(icpt)
            rels, slope, icpt = rels[keep], slope[keep], icpt[keep]
            at_mid = np.outer((a + b) / 2, slope) + icpt
            hi = np.where(rels[:, 1] > 0, at_mid, np.inf).argmin(axis=1)
            lo = np.where(rels[:, 1] < 0, at_mid, -np.inf).argmax(axis=1)
            self._slabs = np.array([a, b, slope[lo], icpt[lo], slope[hi], icpt[hi]])
            self._slabs.flags.writeable = False
        return self._slabs


@dataclass
class ShiftedPiece:
    box: BoxCell
    shift: np.ndarray


class ShiftedUnionCell(PrimitiveCell):
    """Base box cell with sub-boxes translated by dual vectors.

    remainder(): reduce into the base box (a primitive cell of a sublattice),
    then apply the piece shift for the sub-box that contains the point.
    """

    def __init__(self, base: BoxCell, pieces):
        self.base = base
        self.pieces = list(pieces)
        self.dim = base.dim

    def remainder(self, v):
        rem0, shift0 = self.base.remainder(np.asarray(v, dtype=float))
        for piece in self.pieces:
            if piece.box.contains(rem0):
                return rem0 - piece.shift, shift0 + piece.shift
        return rem0, shift0

    def piece_distances(self):
        """(distance-from-origin, shift) for each piece, exact for boxes."""
        out = []
        for piece in self.pieces:
            d2 = 0.0
            for lo, hi in piece.box.intervals:
                if lo >= 0:
                    d2 += lo * lo
                elif hi <= 0:
                    d2 += hi * hi
            out.append((np.sqrt(d2), piece.shift))
        return out


def repetition_symmetric_cell(code: GkpCode) -> ShiftedUnionCell:
    """Symmetric majority-vote primitive cell P' of the repetition code.

    Base: per-position-coordinate interval (-a, a] with a = alpha/sqrt(2)
    (a primitive cell of the cubic sublattice 2a Z^n), momentum coordinates
    keep the Voronoi cube.  Majority-odd regions are shifted by body-center
    dual vectors a*(+-1, ..., +-1).
    """
    n = code.n_modes
    alpha = code.sigma[0, 0]
    a = alpha / np.sqrt(2)
    b = 1 / (np.sqrt(2) * alpha)
    base = BoxCell([(-a, a)] * n + [(-b / 2, b / 2)] * n)

    pieces = []
    pos_odd = (a / 2, a)
    neg_odd = (-a, -a / 2)
    pos_even = (0.0, a / 2)
    neg_even = (-a / 2, 0.0)
    p_full = [(-b / 2, b / 2)] * n
    for odd_set in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range((n + 2) // 2, n + 1)
    ):
        rest = [j for j in range(n) if j not in odd_set]
        for signs in itertools.product((-1, 1), repeat=n):
            intervals = []
            for j in range(n):
                if j in odd_set:
                    intervals.append(pos_odd if signs[j] > 0 else neg_odd)
                else:
                    intervals.append(pos_even if signs[j] > 0 else neg_even)
            shift = np.concatenate([a * np.array(signs, dtype=float), np.zeros(n)])
            pieces.append(ShiftedPiece(BoxCell(intervals + p_full), shift))
    return ShiftedUnionCell(base, pieces)


# ---------------------------------------------------------------------------
# decoding geometry


def shortest_error_length(code: GkpCode, cell: PrimitiveCell, which: str = "any") -> float:
    """Length of the shortest displacement from the origin whose decoding has
    the requested logical class.

    which: 'any' (any non-identity Pauli) or a specific label such as 'X'.
    Voronoi cells use facet (relevant-vector) half-distances; box cells use
    face analysis; shifted-union cells use exact box distances.
    """

    def match(label):
        if which == "any":
            return label != "I"
        return label == which

    best = np.inf
    if isinstance(cell, VoronoiCell):
        for r in cell.relevant_vectors():
            s = code.dual_coefficients(r)
            if match(code.pauli_class(s)):
                best = min(best, 0.5 * float(np.linalg.norm(r)))
    elif isinstance(cell, ShiftedUnionCell):
        for dist, shift in cell.piece_distances():
            s = code.dual_coefficients(shift)
            if match(code.pauli_class(s)):
                best = min(best, float(dist))
        for i, vec in enumerate(cell.base.axis_shift_vectors()):
            s = code.dual_coefficients(vec)
            if match(code.pauli_class(s)):
                lo, hi = cell.base.intervals[i]
                best = min(best, float(min(hi, -lo)))
    elif isinstance(cell, BoxCell):
        for i, vec in enumerate(cell.axis_shift_vectors()):
            s = code.dual_coefficients(vec)
            if match(code.pauli_class(s)):
                lo, hi = cell.intervals[i]
                best = min(best, float(min(hi, -lo)))
    else:
        raise ValueError(f"unsupported cell type {type(cell).__name__}")
    if not np.isfinite(best):
        raise ValueError(f"no boundary of class {which!r}")
    return best


# N_A of the logical Cliffords, with U_A P(s) U_A^dag proportional to P(N_A s)
# (logical.pauli_matrix); on a code, A is the Gaussian unitary of
# S_A = Sigma N_A Sigma^{-1}
CLIFFORD_SYMPLECTICS = {
    "H": np.array([[0, -1], [1, 0]]),
    "S": np.array([[1, 0], [1, 1]]),
    "R": np.array([[1, -1], [1, 0]]),
    "CZ": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]),
    "CNOT": np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]),
}


def is_cell_invariant(s_matrix, cell: PrimitiveCell) -> bool:
    """Decide S*P = P.  Exact for box and Voronoi cells, sampled otherwise
    (200 seeded points, which also cross-check the exact answer)."""
    s = np.asarray(s_matrix, dtype=float)
    rng = np.random.default_rng(0)

    exact = None
    if isinstance(cell, BoxCell):
        verts = cell.vertices()
        mapped = verts @ s.T
        exact = _same_point_set(verts, mapped)
    elif isinstance(cell, VoronoiCell):
        rels = cell.relevant_vectors()
        s_inv_t = np.linalg.inv(s).T
        exact = True
        for r in rels:
            a = s_inv_t @ r
            lam = (a @ a) / (r @ r)
            r_target = a / lam
            if not np.any(np.all(np.abs(rels - r_target) < 1e-9, axis=1)):
                exact = False
                break

    # randomized membership cross-check (and the only decision for other cells)
    scale = 2.0 * np.max(np.abs(cell.remainder(rng.normal(size=cell.dim))[0])) + 1.0
    ok = True
    for _ in range(200):
        v = rng.uniform(-scale, scale, size=cell.dim)
        rem, _ = cell.remainder(v)
        # strict interior points only: stay away from the boundary where the
        # half-open convention makes membership asymmetric
        if not cell.contains(0.999 * rem, tol=1e-9) or not cell.contains(s @ (0.999 * rem), tol=1e-9):
            if cell.contains(0.999 * rem, tol=1e-9):
                ok = False
                break
    if exact is not None:
        if exact != ok:
            raise RuntimeError("exact and sampled cell-invariance checks disagree")
        return exact
    return ok


def _same_point_set(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    used = np.zeros(len(b), dtype=bool)
    for p in a:
        d = np.linalg.norm(b - p, axis=1)
        idx = np.argmin(np.where(used, np.inf, d))
        if d[idx] > 1e-9:
            return False
        used[idx] = True
    return True


# ---------------------------------------------------------------------------
# config loading

# name -> (builder, required params, optional params), each {param: converter};
# an omitted optional param takes the builder's default
_BUILTINS = {
    "square": (square_code, {}, {"d": _integer, "n": _integer}),
    "hexagonal": (hexagonal_code, {}, {"d": _integer}),
    "rectangular": (rectangular_code, {"alpha": _real}, {"d": _integer}),
    "repetition": (repetition_code, {}, {"n": _integer, "alpha": _real}),
}


def _checked(where: str, mapping, required, optional):
    """mapping, after checking that it is a dict that has every required key
    and no key outside required and optional; the error names the key."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a mapping, got {mapping!r}")
    known = [*required, *optional]
    for key in mapping:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {where} (known keys: {', '.join(known) or 'none'})")
    for key in required:
        if key not in mapping:
            raise ValueError(f"{where} needs the key {key!r}")
    return mapping


def code_from_config(cfg) -> tuple:
    """Build (code, cell) from a config mapping or JSON string/path.

    Formats:
      {"name": "square", "params": {...}, "cell": {"voronoi": {}}}
      {"sigma": [[...], ...], "dims": [...], "cell": {"box": [[lo, hi], ...]}}

    The cell is one of {"box": [[lo, hi], ...]}, {"voronoi": {}} and
    {"symmetric": {}}; the default is {"voronoi": {}}.
    A key that is not read raises a ValueError that names it.
    """
    if isinstance(cfg, str):
        try:
            cfg = json.loads(cfg)
        except json.JSONDecodeError:
            with open(cfg) as fh:
                cfg = json.load(fh)
    if isinstance(cfg, dict) and "name" in cfg:
        _checked("code config", cfg, ("name",), ("params", "cell"))
        name = cfg["name"]
        if name not in _BUILTINS:
            raise ValueError(f"unknown built-in code {name!r}")
        builder, required, optional = _BUILTINS[name]
        params = _checked(f"params of {name!r}", cfg.get("params", {}), required, optional)
        convert = {**required, **optional}
        code = builder(**{key: convert[key](value, f"params.{key} of {name!r}")
                          for key, value in params.items()})
    else:
        _checked("code config", cfg, ("sigma", "dims"), ("cell",))
        code = GkpCode(np.array(cfg["sigma"], dtype=float), tuple(cfg["dims"]))
    cell_cfg = _checked("cell config", cfg.get("cell", {"voronoi": {}}), (), ("box", "voronoi", "symmetric"))
    if len(cell_cfg) != 1:
        raise ValueError(f"cell config needs exactly one of 'box', 'voronoi', 'symmetric', got {cell_cfg!r}")
    if "box" in cell_cfg:
        return code, BoxCell(cell_cfg["box"])
    if "voronoi" in cell_cfg:
        _checked("cell.voronoi", cell_cfg["voronoi"], (), ())
        return code, VoronoiCell(code)
    _checked("cell.symmetric", cell_cfg["symmetric"], (), ())
    return code, repetition_symmetric_cell(code)
