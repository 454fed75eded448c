"""GKP codes as symplectic lattices: dual lattices, primitive cells, decoding geometry.

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
    omega,
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

    def check_lattice(self) -> bool:
        """Lattice and dual-lattice symplectic integrality."""
        m = self.generator_matrix()
        om = omega(self.n_modes)
        mbar = self.dual_basis().T
        return (is_integral(m @ om @ m.T, INTEGRALITY_TOL)
                and is_integral(mbar @ om @ m.T, INTEGRALITY_TOL))


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

    Nearest-point searches enumerate coefficient offsets in a window of
    +-radius around the rounded solution, and prove their answer or raise.
    With sigma_min the smallest singular value of the dual basis, a lattice
    point outside the window lies at least sigma_min * (radius + 1/2) from
    the point being reduced, and a coset point outside it at least
    sigma_min * (2 radius + 1) from the origin; remainder and
    relevant_vectors raise a RuntimeError when their minimum (tie tolerance
    included) reaches that bound.  Squared distances within 1e-12 of the
    minimum count as ties.
    """

    def __init__(self, code: GkpCode, radius: int = 3):
        self.code = code
        self.basis = code.dual_basis()
        self.dim = self.basis.shape[0]
        self.radius = radius
        offs = np.array(
            list(itertools.product(range(-radius, radius + 1), repeat=self.dim)),
            dtype=np.int64,
        )
        # lexicographically sorted so ties resolve to the smallest coefficient vector
        self._offsets = offs[np.lexsort(offs.T[::-1])]
        self._offset_points = self._offsets @ self.basis.T
        self._sigma_min = np.linalg.svd(self.basis, compute_uv=False).min()
        self._relevant = None

    def remainder(self, v):
        v = np.asarray(v, dtype=float)
        s0 = np.round(np.linalg.solve(self.basis, v)).astype(np.int64)
        cands = (self.basis @ s0) + self._offset_points
        d2 = np.sum((v[np.newaxis, :] - cands) ** 2, axis=1)
        best = np.min(d2)
        if best + 1e-12 >= (self._sigma_min * (self.radius + 0.5)) ** 2:
            raise RuntimeError(f"nearest dual vector not proven within radius {self.radius}; enlarge radius")
        idx = np.nonzero(d2 <= best + 1e-12)[0][0]
        shift = cands[idx]
        return v - shift, shift

    def relevant_vectors(self) -> np.ndarray:
        """Voronoi-relevant (facet-defining) dual vectors, one row each.

        Uses the coset criterion: r is relevant iff +-r are the unique
        shortest vectors of the coset r + 2*Lambda.
        """
        if self._relevant is not None:
            return self._relevant
        pts = self._offset_points
        rel = []
        for c in itertools.product((0, 1), repeat=self.dim):
            if not any(c):
                continue
            coset = 2.0 * pts + self.basis @ np.array(c, dtype=float)
            d2 = np.sum(coset ** 2, axis=1)
            order = np.argsort(d2)
            if d2[order[0]] + 1e-9 >= (self._sigma_min * (2 * self.radius + 1)) ** 2:
                raise RuntimeError(f"coset minimum not proven within radius {self.radius}; enlarge radius")
            if d2[order[1]] > d2[order[0]] + 1e-9:
                raise RuntimeError("coset minimum is not a +- pair; enlarge radius")
            if len(order) > 2 and d2[order[2]] <= d2[order[0]] + 1e-9:
                continue  # more than two minimizers: not relevant
            r = coset[order[0]]
            rel.append(r)
            rel.append(-r)
        self._relevant = np.array(rel)
        return self._relevant

    def contains(self, v, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=float)
        rels = self.relevant_vectors()
        return bool(np.all(v @ rels.T <= 0.5 * np.sum(rels ** 2, axis=1) + tol))

    def vertices_2d(self) -> np.ndarray:
        """Polygon vertices (counterclockwise) for 2D cells: each solves
        r . x = |r|^2 / 2 for two relevant vectors adjacent in angle."""
        if self.dim != 2:
            raise ValueError("vertices_2d requires a 2D cell")
        rels = self.relevant_vectors()
        rels = rels[np.argsort(np.arctan2(rels[:, 1], rels[:, 0]))]
        facets = np.stack([rels, np.roll(rels, -1, axis=0)], axis=1)
        return np.linalg.solve(facets, 0.5 * np.sum(facets ** 2, axis=2)[:, :, None])[:, :, 0]


class TransformedCell(PrimitiveCell):
    """Image S*P of a cell under a linear map."""

    def __init__(self, s_matrix, base: PrimitiveCell):
        self.s = np.asarray(s_matrix, dtype=float)
        self.s_inv = np.linalg.inv(self.s)
        self.base = base
        self.dim = base.dim

    def remainder(self, v):
        rem, shift = self.base.remainder(self.s_inv @ np.asarray(v, dtype=float))
        return self.s @ rem, self.s @ shift


class UnionCell(PrimitiveCell):
    """Disjoint union of offset copies of a base cell (produced by unfolding).

    The base cell tiles under the fine dual lattice; the union tiles under the
    coarser dual lattice whose membership is decided by `coarse_test`.
    """

    def __init__(self, base: PrimitiveCell, offsets, coarse_test):
        self.base = base
        self.offsets = [np.asarray(o, dtype=float) for o in offsets]
        self.coarse_test = coarse_test
        self.dim = base.dim

    def remainder(self, v):
        v = np.asarray(v, dtype=float)
        for off in self.offsets:
            rem, shift = self.base.remainder(v - off)
            if self.coarse_test(shift):
                return rem + off, shift
        raise RuntimeError("union cell does not tile: no offset matched")


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

    The cell is one of {"box": [[lo, hi], ...]}, {"voronoi": {"radius": r}}
    (radius optional) and {"symmetric": {}}; the default is {"voronoi": {}}.
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
        voronoi = _checked("cell.voronoi", cell_cfg["voronoi"], (), ("radius",))
        if "radius" in voronoi and not (type(voronoi["radius"]) is int and voronoi["radius"] > 0):
            raise ValueError(f"cell.voronoi.radius must be a positive integer, got {voronoi['radius']!r}")
        return code, VoronoiCell(code, **voronoi)
    _checked("cell.symmetric", cell_cfg["symmetric"], (), ())
    return code, repetition_symmetric_cell(code)
