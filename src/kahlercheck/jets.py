"""Truncated Taylor arithmetic in Wirtinger variables.

A :class:`WirtingerJet` stores the coefficients, up to a fixed total
degree, of a smooth function of ``(z^1..z^m, zbar^1..zbar^m)`` around a
base point.  The coefficient attached to the multi-index pair ``(a, b)``
is ``(1/a!b!) * d^{|a|+|b|} F / dz^a dzbar^b`` evaluated at the base
point, so :func:`derivative` recovers mixed Wirtinger partials exactly
(no truncation error for orders the jet carries).

Jets form a commutative algebra: values are immutable, every operation
returns a fresh jet.  ``conj`` swaps the holomorphic and antiholomorphic
slots and conjugates coefficients, which is what lets a chart expression
written in ``z`` and ``conj(z)`` be evaluated on arbitrary input jets
(composition is just evaluation).

Storage is dense over all monomials of total degree <= order, which is
what keeps the multiplication kernel a single fancy-indexed
accumulation.  That choice caps the tool at 4 holomorphic variables.

A jet may carry a trailing point axis: the coefficients of a jet at one
base point have shape ``(size,)``, those of a stack of jets at k base
points have shape ``(size, k)``, column j being the jet at point j.
Every operation acts on axis 0 and treats the columns alike, so a
stacked evaluation is one sweep over the expression for all k points
and gives each point bit for bit the jet it gets alone.  Per-point
scalars (an array of shape ``(k,)``) broadcast along the last axis, a
constant built inside an operation takes its operand's point shape
(:attr:`WirtingerJet.points`), and jets of different orders or point
shapes do not mix.  A check on the values (a singular constant term)
runs at every point and names the first bad one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, OrderError, SingularJetError

MAX_HOLOMORPHIC_VARS = 4
MAX_ORDER = 8

# Constant terms smaller than this make division and log ill-posed.
SINGULAR_FLOOR = 1e-12
# flattened multiplication tables are kept for stacks up to this many coefficient
# products, and for this many stack sizes per space
_KEPT_TABLE_ENTRIES = 1 << 16
_KEPT_TABLE_COUNTS = 32


def _bounded_exponents(nslots: int, order: int) -> list[tuple[int, ...]]:
    if nslots == 0:
        return [()]
    out = []
    for head in range(order + 1):
        for tail in _bounded_exponents(nslots - 1, order - head):
            out.append((head,) + tail)
    return out


class _JetSpace:
    """Shared tables for all jets with the same (num_vars, order).

    Monomials are ranked by (total degree, exponent tuple).  Because the
    ranking only depends on the tuples, the first ``size`` monomials of
    a higher-order space over the same variables are exactly the
    monomials of the lower-order space; truncation is a slice.
    """

    def __init__(self, num_vars: int, order: int):
        self.num_vars = num_vars
        self.order = order
        self.nslots = 2 * num_vars
        monos = sorted(_bounded_exponents(self.nslots, order), key=lambda e: (sum(e), e))
        self.monomials = monos
        self.size = len(monos)
        self.index = {e: i for i, e in enumerate(monos)}
        self.degree = np.array([sum(e) for e in monos], dtype=np.intp)
        # first rank of each degree, used to cut multiplication loops early
        self._deg_start = np.searchsorted(self.degree, np.arange(order + 2))
        self._mul_table = None
        self._flat_mul_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._conj_perm = None
        self._antiholomorphic = None
        self._diff_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._block_tables: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- lazily built tables ------------------------------------------------

    @property
    def mul_table(self):
        """(I, J, K): monomial I times monomial J is monomial K, for every pair whose degrees
        sum to at most the order, I ascending and J ascending within each I."""
        if self._mul_table is None:
            exps = np.array(self.monomials, dtype=np.intp).reshape(self.size, self.nslots)
            # rank i pairs with the ranks below the first one of degree order − deg(i) + 1
            cuts = self._deg_start[self.order - self.degree + 1]
            I = np.repeat(np.arange(self.size), cuts)
            J = np.arange(len(I)) - np.repeat(np.cumsum(cuts) - cuts, cuts)
            # exponents are digits below base order + 1, first slot most significant, under the
            # degree: the keys ascend with the rank (degree, then exponent tuple), and a
            # product's exponents stay at most the order, so its key is its factors' keys' sum
            base = self.order + 1
            keys = (self.degree * base ** self.nslots
                    + exps @ base ** np.arange(self.nslots - 1, -1, -1, dtype=np.intp))
            K = np.searchsorted(keys, keys[I] + keys[J])
            self._mul_table = (I, J, K)
        return self._mul_table

    def flat_mul_table(self, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:attr:`mul_table` over ``length`` flattened coefficients: a stack of
        ``length // size`` points in C order.

        Rank r of point j sits at r * count + j, so each point keeps the
        one-point table's order of accumulation.
        """
        tables = self._flat_mul_tables.get(length)
        if tables is None:
            count = length // self.size
            cols = np.arange(count)
            tables = tuple((t[:, None] * count + cols).ravel() for t in self.mul_table)
            if len(tables[0]) <= _KEPT_TABLE_ENTRIES:
                if len(self._flat_mul_tables) >= _KEPT_TABLE_COUNTS:
                    self._flat_mul_tables.clear()
                self._flat_mul_tables[length] = tables
        return tables

    @property
    def conj_perm(self) -> np.ndarray:
        if self._conj_perm is None:
            m = self.num_vars
            perm = np.empty(self.size, dtype=np.intp)
            for i, e in enumerate(self.monomials):
                perm[i] = self.index[e[m:] + e[:m]]
            self._conj_perm = perm
        return self._conj_perm

    @property
    def antiholomorphic(self) -> np.ndarray:
        """Ranks of the monomials that carry a barred variable."""
        if self._antiholomorphic is None:
            m = self.num_vars
            self._antiholomorphic = np.array(
                [i for i, e in enumerate(self.monomials) if any(e[m:])], dtype=np.intp
            )
        return self._antiholomorphic

    def block_table(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(rank, factorial) arrays behind a block of partials at the base point.

        ``"grad"`` is ∂/∂z^a (shape m), ``"levi"`` is ∂²/∂z^a∂z̄^b and
        ``"hess"`` is ∂²/∂z^a∂z^b (shape m×m).  Low-degree ranks agree across
        orders, so one table serves every jet that carries the block.
        """
        if kind not in self._block_tables:
            m = self.num_vars
            units = np.eye(2 * m, dtype=np.intp)
            if kind == "grad":
                exps = [units[a] for a in range(m)]
            elif kind == "levi":
                exps = [units[a] + units[m + b] for a in range(m) for b in range(m)]
            else:  # "hess"
                exps = [units[a] + units[b] for a in range(m) for b in range(m)]
            shape = (m,) if kind == "grad" else (m, m)
            ranks = np.array([self.index[tuple(e)] for e in exps], dtype=np.intp)
            fact = np.array([math.prod(map(math.factorial, e)) for e in exps], dtype=np.float64)
            self._block_tables[kind] = (ranks.reshape(shape), fact.reshape(shape))
        return self._block_tables[kind]

    def diff_table(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Map lower-space ranks to (source rank here, multiplicity)."""
        if slot not in self._diff_tables:
            lower = _space(self.num_vars, self.order - 1)
            src = np.empty(lower.size, dtype=np.intp)
            mult = np.empty(lower.size, dtype=np.float64)
            for j, e in enumerate(lower.monomials):
                bumped = list(e)
                bumped[slot] += 1
                src[j] = self.index[tuple(bumped)]
                mult[j] = e[slot] + 1
            self._diff_tables[slot] = (src, mult)
        return self._diff_tables[slot]


@lru_cache(maxsize=None)
def _space(num_vars: int, order: int) -> _JetSpace:
    if not 1 <= num_vars <= MAX_HOLOMORPHIC_VARS:
        raise ConfigurationError(
            f"jets support 1..{MAX_HOLOMORPHIC_VARS} holomorphic variables, got {num_vars}"
        )
    if not 0 <= order <= MAX_ORDER:
        raise ConfigurationError(f"jet order must lie in 0..{MAX_ORDER}, got {order}")
    return _JetSpace(num_vars, order)


class WirtingerJet:
    """Immutable truncated Taylor expansion; see the module docstring."""

    __slots__ = ("space", "coeffs")

    # keep numpy scalars from absorbing jets into object arrays; binary
    # ops then fall back to the __r*__ methods below
    __array_ufunc__ = None

    def __init__(self, space: _JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- metadata ------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.space.num_vars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def points(self) -> tuple[int, ...]:
        """Trailing point shape: ``()`` at one point, ``(k,)`` for a stack of k."""
        return self.coeffs.shape[1:]

    @property
    def value(self):
        """Constant term: the value at the base point, one per point for a stack."""
        return self.coeffs[0]

    def at(self, index: int) -> "WirtingerJet":
        """The jet at point ``index`` of a stack, or the stack at an index array's points."""
        return WirtingerJet(self.space, np.ascontiguousarray(self.coeffs[:, index]))

    def __repr__(self) -> str:
        where = f"points={self.points[0]}" if self.points else f"value={self.value:.6g}"
        return f"WirtingerJet(m={self.num_vars}, order={self.order}, {where})"

    # -- ring structure --------------------------------------------------------

    def _coerced(self, other) -> "WirtingerJet | None":
        """``other`` as a jet of this jet's variables, order and points, or None for a scalar."""
        if isinstance(other, WirtingerJet):
            if other.space is not self.space:
                what = "variable counts" if other.num_vars != self.num_vars else "orders"
                raise ConfigurationError(f"jet arithmetic requires matching {what}")
            if other.coeffs.shape != self.coeffs.shape:
                raise ConfigurationError("jet arithmetic requires jets at the same points")
            return other
        if isinstance(other, (int, float, complex, np.number)):
            return None  # scalar fast path
        if isinstance(other, np.ndarray):
            if other.shape != self.coeffs.shape[1:]:
                raise ConfigurationError(
                    f"per-point scalars of shape {other.shape} do not match the jet's points"
                )
            return None  # one scalar per point, broadcast along the last axis
        return NotImplemented  # type: ignore[return-value]

    def truncated(self, order: int) -> "WirtingerJet":
        """This jet cut to ``order``; it carries no coefficients above its own order."""
        if order == self.space.order:
            return self
        if order > self.space.order:
            raise OrderError(f"cannot extend a jet of order {self.order} to order {order}")
        target = _space(self.num_vars, order)
        return WirtingerJet(target, self.coeffs[: target.size].copy())

    def __add__(self, other):
        rhs = self._coerced(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            coeffs = self.coeffs.copy()
            coeffs[0] += other
            return WirtingerJet(self.space, coeffs)
        return WirtingerJet(self.space, self.coeffs + rhs.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return WirtingerJet(self.space, -self.coeffs)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        rhs = self._coerced(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            return WirtingerJet(self.space, self.coeffs * other)
        # one accumulation over the flattened (C order) coefficients of every point
        coeffs = self.coeffs
        I, J, K = self.space.flat_mul_table(coeffs.size)
        # not in place: numpy rounds a one-element in-place product by another formula
        terms = coeffs.take(I) * rhs.coeffs.take(J)
        out = np.zeros(coeffs.size, dtype=complex)
        np.add.at(out, K, terms)
        out.shape = coeffs.shape
        return WirtingerJet(self.space, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, WirtingerJet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ConfigurationError("jet powers must be non-negative integers")
        n = int(n)
        if n == 0:
            return self._constant(1.0)
        # square-and-multiply, the product started from its first factor
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- analytic operations ----------------------------------------------------

    def reciprocal(self) -> "WirtingerJet":
        c0 = self._regular_value("divide by")
        inv = _inverse(c0)
        u = self._nilpotent() * inv
        acc = self._constant(1.0)
        term = acc
        for _ in range(self.order):
            term = term * u * (-1.0)
            acc = acc + term
        return acc * inv

    def exp(self) -> "WirtingerJet":
        n = self._nilpotent()
        acc = self._constant(1.0)
        term = acc
        for k in range(1, self.order + 1):
            term = term * n * (1.0 / k)
            acc = acc + term
        return acc * np.exp(self.value)

    def log(self) -> "WirtingerJet":
        c0 = self._regular_value("take log of")
        u = self._nilpotent() * _inverse(c0)
        acc = self._constant(np.log(c0))
        term = self._constant(1.0)
        for k in range(1, self.order + 1):
            term = term * u
            acc = acc + term * ((-1.0) ** (k + 1) / k)
        return acc

    def conj(self) -> "WirtingerJet":
        out = np.empty_like(self.coeffs)
        out[self.space.conj_perm] = np.conj(self.coeffs)
        return WirtingerJet(self.space, out)

    def _constant(self, value) -> "WirtingerJet":
        """A constant jet at this jet's points, of its order."""
        coeffs = np.zeros(self.coeffs.shape, dtype=complex)
        coeffs[0] = value
        return WirtingerJet(self.space, coeffs)

    def _nilpotent(self) -> "WirtingerJet":
        coeffs = self.coeffs.copy()
        coeffs[0] = 0.0
        return WirtingerJet(self.space, coeffs)

    def _regular_value(self, what: str):
        """The constant term, checked away from zero at every point."""
        c0 = self.coeffs[0]
        bad = first_bad(abs(c0) <= SINGULAR_FLOOR)
        if bad is not None:
            raise SingularJetError(f"cannot {what} a jet with constant term "
                                   f"{complex(np.ravel(c0)[bad])!r}{at_point(self.points, bad)}",
                                   bad)
        return c0

    # -- differentiation -----------------------------------------------------------

    def d_dz(self, k: int) -> "WirtingerJet":
        """Jet of dF/dz^k, one order lower."""
        return self._diff(k)

    def d_dzbar(self, k: int) -> "WirtingerJet":
        """Jet of dF/dzbar^k, one order lower."""
        return self._diff(self.num_vars + k)

    def _diff(self, slot: int) -> "WirtingerJet":
        if not 0 <= slot < self.space.nslots:
            raise ConfigurationError(f"variable index {slot} out of range")
        if self.order == 0:
            raise OrderError("cannot differentiate an order-0 jet")
        src, mult = self.space.diff_table(slot)
        lower = _space(self.num_vars, self.order - 1)
        # transposed, the per-rank multiplicities broadcast along axis 0 at any points
        return WirtingerJet(lower, (self.coeffs[src].T * mult).T)


def _inverse(c0):
    """1/c0 for a constant term or a stack of them, rounded as Python's complex division.

    numpy divides complex numbers by another formula, and the two disagree
    in the last bit, so every point takes Python's.
    """
    if isinstance(c0, np.ndarray):
        return np.array([1.0 / c for c in c0.tolist()])
    return 1.0 / complex(c0)


def first_bad(mask) -> int | None:
    """Index of the first True of a per-point mask (one numpy bool at one point), or None."""
    if mask.ndim == 0:  # numpy's scalar path is ~30x cheaper than a reduction
        return 0 if mask else None
    return int(mask.argmax()) if mask.any() else None


def all_finite(jets) -> np.ndarray:
    """Per point of a list of jets, one numpy bool or one per point of a stack: whether
    every coefficient is finite."""
    return np.isfinite(np.concatenate([jet.coeffs for jet in jets])).all(axis=0)


def at_point(points: tuple[int, ...], index: int) -> str:
    """Where in a stack an error arose; empty for a jet at one point."""
    return f" at point {index} of the stack" if points else ""


def jet_values(jets) -> np.ndarray:
    """Constant terms of a list of jets: shape (n,) at one point, (k, n) for a stack."""
    values = np.array([jet.coeffs[0] for jet in jets])
    return np.ascontiguousarray(values.T) if jets[0].points else values


# -- constructors ---------------------------------------------------------------


def jet_constant(value, num_vars: int, order: int, points: tuple[int, ...] = ()) -> WirtingerJet:
    """The constant ``value`` (a scalar, or one per point) at ``points``: () or (k,)."""
    space = _space(num_vars, order)
    coeffs = np.zeros((space.size,) + tuple(points), dtype=complex)
    coeffs[0] = value
    return WirtingerJet(space, coeffs)


def jet_variable(index: int, base, num_vars: int, order: int) -> WirtingerJet:
    """The coordinate function z^index expanded around ``base``, a scalar or a (k,) stack."""
    space = _space(num_vars, order)
    if not 0 <= index < num_vars:
        raise ConfigurationError(f"variable index {index} out of range for m={num_vars}")
    coeffs = np.zeros((space.size,) + np.shape(base), dtype=complex)
    coeffs[0] = base
    if order >= 1:
        unit = [0] * space.nslots
        unit[index] = 1
        coeffs[space.index[tuple(unit)]] = 1.0
    return WirtingerJet(space, coeffs)


def variable_jets(point, num_vars: int, order: int) -> list[WirtingerJet]:
    """Coordinate jets at one point (shape (m,)) or at a stack of k points (shape (k, m))."""
    pt = np.asarray(point, dtype=complex)
    if pt.ndim not in (1, 2) or pt.shape[-1] != num_vars:
        raise ConfigurationError(f"expected a point with {num_vars} coordinates")
    return [jet_variable(k, pt[..., k], num_vars, order) for k in range(num_vars)]


def quadratic_jet(value, grad, quad) -> WirtingerJet:
    """The stacked order-2 jet of F = value + Σ grad_c·Δz^c + Σ quad_{cd}·Δz^c·Δz^d, holomorphic
    in the displacement Δz, with ``value`` of shape (k,), ``grad`` (k, m) and ``quad`` (k, m, m)."""
    count, num_vars = np.shape(grad)
    space = _space(num_vars, 2)
    coeffs = np.zeros((space.size, count), dtype=complex)
    coeffs[0] = value
    coeffs[space.block_table("grad")[0]] = np.transpose(grad)
    # (c, d) and (d, c) share the monomial Δz^c·Δz^d
    np.add.at(coeffs, space.block_table("hess")[0].ravel(),
              np.reshape(quad, (count, num_vars * num_vars)).T)
    return WirtingerJet(space, coeffs)


def compose(outer: WirtingerJet, inner: Sequence[WirtingerJet]) -> WirtingerJet:
    """Substitute displacement jets for the variables of ``outer``.

    ``inner[k]`` replaces variable k of ``outer`` and ``inner[k].conj()``
    replaces the barred slot, which is the chain rule for a holomorphic
    change of variables z_k = p_k + u_k(w).  Every inner jet must share
    one variable space and have zero constant term; the result is then
    exact to the smaller of the two orders, because displacement jets
    are nilpotent.

    Charts pull back by evaluating their defining function on the map's
    jets, so the package composes no jets; this is the tests' reference
    for that pullback, and the benchmark's tracer wraps it by name.
    """
    inner = list(inner)
    if len(inner) != outer.num_vars:
        raise ConfigurationError(
            f"composition needs {outer.num_vars} inner jets, got {len(inner)}"
        )
    w_vars = inner[0].num_vars
    for jet in inner:
        if jet.num_vars != w_vars:
            raise ConfigurationError("inner jets must share one variable space")
        if abs(jet.value) > 1e-12:
            raise ConfigurationError("inner jets must have zero constant term")
    n = min(outer.order, min(j.order for j in inner))
    parts = [j.truncated(n) for j in inner]
    space = _space(w_vars, n)
    one = jet_constant(1.0, w_vars, n)
    powers = [[one, p] for p in parts]
    bar_powers = [[one, p.conj()] for p in parts]

    def _power(cache: list, k: int) -> WirtingerJet:
        while len(cache) <= k:
            cache.append(cache[-1] * cache[1])
        return cache[k]

    acc = np.zeros(space.size, dtype=complex)
    m = outer.num_vars
    for rank, exps in enumerate(outer.space.monomials):
        if outer.space.degree[rank] > n:
            break  # higher outer degrees cannot reach coefficients of order <= n
        c = outer.coeffs[rank]
        if c == 0:
            continue
        term = None
        for i in range(m):
            for cache, e in ((powers[i], exps[i]), (bar_powers[i], exps[m + i])):
                if e:
                    factor = _power(cache, e)
                    term = factor if term is None else term * factor
        if term is None:
            acc[0] += c
        else:
            acc += c * term.coeffs
    return WirtingerJet(space, acc)


# -- coefficient access ------------------------------------------------------------


def derivative(jet: WirtingerJet, a: Sequence[int], b: Sequence[int]) -> complex:
    """Mixed partial d^{|a|+|b|} F / dz^a dzbar^b at the base point."""
    ta, tb = tuple(map(int, a)), tuple(map(int, b))
    for given, t in ((a, ta), (b, tb)):
        if len(t) != jet.num_vars or min(t) < 0:
            raise ConfigurationError(f"multi-index {given!r} invalid for m={jet.num_vars}")
    if sum(ta) + sum(tb) > jet.order:
        raise OrderError(
            f"jet of order {jet.order} does not carry the ({sum(ta)},{sum(tb)}) derivative"
        )
    fact = 1.0
    for x in ta + tb:
        fact *= math.factorial(x)
    return complex(jet.coeffs[jet.space.index[ta + tb]]) * fact


_BLOCK_DEGREE = {"grad": 1, "levi": 2, "hess": 2}


def derivative_block(jets, kind: str) -> np.ndarray:
    """A block of partials (see :meth:`_JetSpace.block_table`) of every jet at once.

    ``jets`` is a jet or a nested list of jets over the same variables and
    points; the result has the point shape, then the list's shape, then the
    block's shape.  Entries agree with :func:`derivative`.
    """
    if kind not in _BLOCK_DEGREE:
        raise ConfigurationError(f"unknown derivative block {kind!r}")
    first = jets
    while not isinstance(first, WirtingerJet):
        first = first[0]
    space = _space(first.num_vars, _BLOCK_DEGREE[kind])
    ranks, fact = space.block_table(kind)
    block = _stacked_coeffs(jets, space.size)[..., ranks]
    if first.points:  # the point axis goes first
        block = np.moveaxis(block, block.ndim - ranks.ndim - 1, 0)
    # C order, like an array built entry by entry: einsum's rounding follows the layout
    return np.ascontiguousarray(block) * fact


def _stacked_coeffs(jets, size: int) -> np.ndarray:
    """Leading ``size`` coefficients of each jet, in the nesting of ``jets``: shape
    (*nest, *points, size)."""
    if isinstance(jets, WirtingerJet):
        if jets.space.size < size:
            raise OrderError(f"jet of order {jets.order} is too short for this derivative block")
        return jets.coeffs[:size].T
    return np.array([_stacked_coeffs(j, size) for j in jets])


# -- small matrices of jets ------------------------------------------------------------
#
# Charts hand identity checks m x m grids of jets (metric entries,
# pullback entries).  m <= 4 keeps cofactor expansion cheap and exact.


JetMatrix = list  # list[list[WirtingerJet]]


def jet_mat_mul(A: JetMatrix, B: JetMatrix) -> JetMatrix:
    n, k, m = len(A), len(B), len(B[0])
    return [
        [sum((A[i][t] * B[t][j] for t in range(1, k)), A[i][0] * B[0][j]) for j in range(m)]
        for i in range(n)
    ]


def jet_mat_det(A: JetMatrix) -> WirtingerJet:
    n = len(A)
    if n == 1:
        return A[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        term = A[0][j] * jet_mat_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def jet_mat_inv(A: JetMatrix) -> JetMatrix:
    n = len(A)
    det = jet_mat_det(A)
    # a power of two near 1/|det| per point brings the determinant near 1 exactly, so a
    # small but regular matrix clears the reciprocal's absolute floor; only det = 0 fails
    scale = np.ldexp(1.0, -np.frexp(np.abs(det.value))[1])
    inv_det = (det * scale).reciprocal() * scale
    if n == 1:
        return [[inv_det]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [A[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof = jet_mat_det(minor)
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof * inv_det  # adjugate transposes indices
    return out
