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
    def value(self) -> complex:
        """Constant term, i.e. the value at the base point."""
        return complex(self.coeffs[0])

    def __repr__(self) -> str:
        return f"WirtingerJet(m={self.num_vars}, order={self.order}, value={self.value:.6g})"

    # -- ring structure --------------------------------------------------------

    def _coerced(self, other) -> "WirtingerJet | None":
        if isinstance(other, WirtingerJet):
            if other.num_vars != self.num_vars:
                raise ConfigurationError("jet arithmetic requires matching variable counts")
            lo = min(self.order, other.order)
            return other.truncated(lo)
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return None  # scalar fast path
        return NotImplemented  # type: ignore[return-value]

    def truncated(self, order: int) -> "WirtingerJet":
        if order == self.order:
            return self
        if order > self.order:
            target = _space(self.num_vars, order)
            coeffs = np.zeros(target.size, dtype=complex)
            coeffs[: self.space.size] = self.coeffs
            return WirtingerJet(target, coeffs)
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
        lhs = self.truncated(rhs.order)
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
        lhs = self.truncated(rhs.order)
        I, J, K = lhs.space.mul_table
        out = np.zeros(lhs.space.size, dtype=complex)
        np.add.at(out, K, lhs.coeffs[I] * rhs.coeffs[J])
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
        result = jet_constant(1.0, self.num_vars, self.order)
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- analytic operations ----------------------------------------------------

    def reciprocal(self) -> "WirtingerJet":
        c0 = self.value
        if abs(c0) <= SINGULAR_FLOOR:
            raise SingularJetError(f"cannot divide by a jet with constant term {c0!r}")
        u = self._nilpotent() * (1.0 / c0)
        acc = jet_constant(1.0, self.num_vars, self.order)
        term = acc
        for _ in range(self.order):
            term = term * u * (-1.0)
            acc = acc + term
        return acc * (1.0 / c0)

    def exp(self) -> "WirtingerJet":
        n = self._nilpotent()
        acc = jet_constant(1.0, self.num_vars, self.order)
        term = acc
        for k in range(1, self.order + 1):
            term = term * n * (1.0 / k)
            acc = acc + term
        return acc * np.exp(self.value)

    def log(self) -> "WirtingerJet":
        c0 = self.value
        if abs(c0) <= SINGULAR_FLOOR:
            raise SingularJetError(f"cannot take log of a jet with constant term {c0!r}")
        u = self._nilpotent() * (1.0 / c0)
        acc = jet_constant(np.log(c0), self.num_vars, self.order)
        term = jet_constant(1.0, self.num_vars, self.order)
        for k in range(1, self.order + 1):
            term = term * u
            acc = acc + term * ((-1.0) ** (k + 1) / k)
        return acc

    def conj(self) -> "WirtingerJet":
        out = np.empty_like(self.coeffs)
        out[self.space.conj_perm] = np.conj(self.coeffs)
        return WirtingerJet(self.space, out)

    def _nilpotent(self) -> "WirtingerJet":
        coeffs = self.coeffs.copy()
        coeffs[0] = 0.0
        return WirtingerJet(self.space, coeffs)

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
        return WirtingerJet(lower, self.coeffs[src] * mult)


# -- constructors ---------------------------------------------------------------


def jet_constant(value: complex, num_vars: int, order: int) -> WirtingerJet:
    space = _space(num_vars, order)
    coeffs = np.zeros(space.size, dtype=complex)
    coeffs[0] = value
    return WirtingerJet(space, coeffs)


def jet_variable(index: int, base: complex, num_vars: int, order: int) -> WirtingerJet:
    """The coordinate function z^index expanded around ``base``."""
    space = _space(num_vars, order)
    if not 0 <= index < num_vars:
        raise ConfigurationError(f"variable index {index} out of range for m={num_vars}")
    coeffs = np.zeros(space.size, dtype=complex)
    coeffs[0] = base
    if order >= 1:
        unit = [0] * space.nslots
        unit[index] = 1
        coeffs[space.index[tuple(unit)]] = 1.0
    return WirtingerJet(space, coeffs)


def variable_jets(point: Sequence[complex], num_vars: int, order: int) -> list[WirtingerJet]:
    pt = np.asarray(point, dtype=complex)
    if pt.shape != (num_vars,):
        raise ConfigurationError(f"expected a point with {num_vars} coordinates")
    return [jet_variable(k, pt[k], num_vars, order) for k in range(num_vars)]


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

    ``jets`` is a jet or a nested list of jets over the same variables; the
    result has the list's shape followed by the block's shape.  Entries agree
    with :func:`derivative`.
    """
    if kind not in _BLOCK_DEGREE:
        raise ConfigurationError(f"unknown derivative block {kind!r}")
    first = jets
    while not isinstance(first, WirtingerJet):
        first = first[0]
    space = _space(first.num_vars, _BLOCK_DEGREE[kind])
    ranks, fact = space.block_table(kind)
    # C order, like an array built entry by entry: einsum's rounding follows the layout
    return np.ascontiguousarray(_stacked_coeffs(jets, space.size)[..., ranks]) * fact


def _stacked_coeffs(jets, size: int) -> np.ndarray:
    """Leading ``size`` coefficients of each jet, in the nesting of ``jets``."""
    if isinstance(jets, WirtingerJet):
        if jets.space.size < size:
            raise OrderError(f"jet of order {jets.order} is too short for this derivative block")
        return jets.coeffs[:size]
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
    if n == 1:
        return [[det.reciprocal()]]
    inv_det = det.reciprocal()
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
