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
(:attr:`WirtingerJet.points`), and jets of different point shapes do
not mix.  A check on the values (a singular constant term) runs at
every point and names the first bad one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

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
        if self._mul_table is None:
            I, J, K = [], [], []
            arr = np.array(self.monomials, dtype=np.intp)
            for i, ei in enumerate(self.monomials):
                cut = self._deg_start[self.order - sum(ei) + 1]
                sums = arr[:cut] + np.array(ei, dtype=np.intp)
                for j in range(cut):
                    I.append(i)
                    J.append(j)
                    K.append(self.index[tuple(sums[j])])
            self._mul_table = (
                np.array(I, dtype=np.intp),
                np.array(J, dtype=np.intp),
                np.array(K, dtype=np.intp),
            )
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
        """``other`` as a jet of at most this jet's order, or None for a scalar."""
        if isinstance(other, WirtingerJet):
            if other.space is self.space:  # the common case: same variables and order
                if other.coeffs.shape != self.coeffs.shape:
                    raise ConfigurationError("jet arithmetic requires jets at the same points")
                return other
            if other.num_vars != self.num_vars:
                raise ConfigurationError("jet arithmetic requires matching variable counts")
            if other.coeffs.shape[1:] != self.coeffs.shape[1:]:
                raise ConfigurationError("jet arithmetic requires jets at the same points")
            return other.truncated(min(self.space.order, other.space.order))
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
        if order == self.space.order:
            return self
        target = _space(self.num_vars, order)
        if order > self.space.order:
            coeffs = np.zeros((target.size,) + self.coeffs.shape[1:], dtype=complex)
            coeffs[: self.space.size] = self.coeffs
            return WirtingerJet(target, coeffs)
        return WirtingerJet(target, self.coeffs[: target.size].copy())

    def __add__(self, other):
        rhs = self._coerced(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            coeffs = self.coeffs.copy()
            coeffs[0] += other
            return WirtingerJet(self.space, coeffs)
        lhs = self if rhs.space is self.space else self.truncated(rhs.space.order)
        return WirtingerJet(lhs.space, lhs.coeffs + rhs.coeffs)

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
        lhs = self if rhs.space is self.space else self.truncated(rhs.space.order)
        # one accumulation over the flattened (C order) coefficients of every point
        coeffs = lhs.coeffs
        I, J, K = lhs.space.flat_mul_table(coeffs.size)
        # not in place: numpy rounds a one-element in-place product by another formula
        terms = coeffs.take(I) * rhs.coeffs.take(J)
        out = np.zeros(coeffs.size, dtype=complex)
        np.add.at(out, K, terms)
        out.shape = coeffs.shape
        return WirtingerJet(lhs.space, out)

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
                                   f"{complex(np.ravel(c0)[bad])!r}{at_point(self.points, bad)}")
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


def _as_multi_index(a, num_vars: int) -> tuple[int, ...]:
    t = tuple(int(x) for x in a)
    if len(t) != num_vars or any(x < 0 for x in t):
        raise ConfigurationError(f"multi-index {a!r} invalid for m={num_vars}")
    return t


def derivative(jet: WirtingerJet, a: Sequence[int], b: Sequence[int]) -> complex:
    """Mixed partial d^{|a|+|b|} F / dz^a dzbar^b at the base point."""
    ta = _as_multi_index(a, jet.num_vars)
    tb = _as_multi_index(b, jet.num_vars)
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


# -- independent finite-difference oracle ----------------------------------------------


def _wirtinger_op(f: Callable, k: int, h: float, sign: float) -> Callable:
    """Central-difference d/dz^k (sign=-1) or d/dzbar^k (sign=+1).

    One Richardson step knocks the stencil error down to O(h^4), which
    is what lets the default step hold 1e-6 relative agreement on
    strongly curved fields.
    """

    def single(p: np.ndarray, hh: float) -> complex:
        e = np.zeros(len(p), dtype=complex)
        e[k] = 1.0
        fx = (f(p + hh * e) - f(p - hh * e)) / (2 * hh)
        fy = (f(p + 1j * hh * e) - f(p - 1j * hh * e)) / (2 * hh)
        return 0.5 * (fx + sign * 1j * fy)

    def op(p: np.ndarray) -> complex:
        return (4.0 * single(p, h / 2) - single(p, h)) / 3.0

    return op


def fd_cross_check(
    field: Callable[[np.ndarray], complex],
    point: Sequence[complex],
    a: Sequence[int],
    b: Sequence[int],
    step: float = 1e-3,
) -> complex:
    """Central-difference estimate of a mixed Wirtinger partial.

    ``field`` is any scalar-valued callable of a complex point; nothing
    here touches jets, so the result is an independent oracle for
    :func:`derivative`.  Only totals |a|+|b| <= 2 are supported (the
    stencil error grows too fast beyond that).
    """
    pt = np.asarray(point, dtype=complex)
    ta = _as_multi_index(a, len(pt))
    tb = _as_multi_index(b, len(pt))
    if step <= 0:
        raise ConfigurationError("finite-difference step must be positive")
    if sum(ta) + sum(tb) > 2:
        raise ConfigurationError("fd_cross_check supports derivative orders <= 2 only")
    f = field
    for k, reps in enumerate(ta):
        for _ in range(reps):
            f = _wirtinger_op(f, k, step, -1.0)
    for k, reps in enumerate(tb):
        for _ in range(reps):
            f = _wirtinger_op(f, k, step, +1.0)
    return f(pt)


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


def jet_mat_trace(A: JetMatrix) -> WirtingerJet:
    acc = A[0][0]
    for i in range(1, len(A)):
        acc = acc + A[i][i]
    return acc
