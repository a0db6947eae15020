"""Reference computations made apart from the program.

Nothing here calls the program's coefficient, error or expansion code: the
closed forms, the permutation sum of the exact-error formula, the nested
Gauss-Legendre quadrature and the Hermite (Wick) contraction are the
benchmark's own. Inputs that come from the program, such as the rational
cores of a coefficient table, are named as such at each function.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial.hermite_e import hermeval


def set_partitions(k: int):
    """Every coincidence pattern of k Wiener positions, as label tuples."""
    def grow(prefix, used):
        if len(prefix) == k:
            yield tuple(v + 1 for v in prefix)
            return
        for value in range(used + 1):
            yield from grow(prefix + [value], max(used, value + 1))
    yield from grow([0], 1)


def patterns_with_time(k: int):
    """Every pattern of k positions with at least one time component (0)
    and at least one Wiener component."""
    for z in range(1, k):
        for zeros in itertools.combinations(range(k), z):
            rest = [pos for pos in range(k) if pos not in zeros]
            for part in set_partitions(len(rest)):
                labels = [0] * k
                for pos, lab in zip(rest, part):
                    labels[pos] = lab
                yield tuple(labels)


def blocks(labels) -> list[list[int]]:
    """Positions sharing each nonzero label, in order of first appearance."""
    seen: dict[int, list[int]] = {}
    for pos, lab in enumerate(labels):
        if lab:
            seen.setdefault(lab, []).append(pos)
    return list(seen.values())


def group_size(labels) -> int:
    return math.prod(math.factorial(len(b)) for b in blocks(labels))


def block_permutations(labels):
    """Axis permutations that permute positions within equal-label blocks."""
    k = len(labels)
    per_block = [list(itertools.permutations(b)) for b in blocks(labels)]
    for choice in itertools.product(*per_block):
        axes = list(range(k))
        for block, image in zip(blocks(labels), choice):
            for tgt, src in zip(block, image):
                axes[tgt] = src
        yield tuple(axes)


def ordered_monomial_integral(exponents, length) -> Fraction:
    """Integral of prod s_l^e_l over 0 < s_1 < ... < s_k < length."""
    total = Fraction(1)
    running = 0
    for e in exponents:
        running += e + 1
        total /= running
    return total * Fraction(length) ** running


def kernel_energy(exponents, length) -> Fraction:
    """Squared L2 norm of the simplex kernel with weights s^q_l."""
    return ordered_monomial_integral([2 * q for q in exponents], length)


class CoreTensor:
    """Integer image of a table's rational cores: cores = ints / den.

    ``cores`` maps multi-indices over {0..p}^k to Fractions; they are the
    program's output, scale-free as documented for ``CoeffValue``:
    C(j) = core(j) * sqrt(prod(2 j_l + 1)) * length^(m/2) * 2^-(k + sum q),
    with m = k + 2 sum q.
    """

    def __init__(self, cores: dict, p: int, exponents):
        self.k = len(exponents)
        self.p = p
        self.exponents = tuple(exponents)
        self.den = math.lcm(*(c.denominator for c in cores.values()))
        shape = (p + 1,) * self.k
        self.ints = np.empty(shape, dtype=object)
        self.weights = np.empty(shape, dtype=object)
        for j in itertools.product(range(p + 1), repeat=self.k):
            c = cores[j]
            self.ints[j] = c.numerator * (self.den // c.denominator)
            self.weights[j] = math.prod(2 * m + 1 for m in j)

    @property
    def m(self) -> int:
        return self.k + 2 * sum(self.exponents)

    def _scale(self, length) -> Fraction:
        # C(j) C(j') summed with weight w(j) -> rational factor
        return Fraction(1, self.den ** 2 * 4 ** (self.k + sum(self.exponents))) \
            * Fraction(length) ** self.m

    def exact_error(self, labels, p: int, length) -> Fraction:
        """The paper's I_k - sum_j C(j) sum_sigma C(sigma j), term by term."""
        sl = (slice(0, p + 1),) * self.k
        c = self.ints[sl]
        inner = sum(np.transpose(c, axes) for axes in block_permutations(labels))
        total = int((self.weights[sl] * c * inner).sum())
        return kernel_energy(self.exponents, length) - total * self._scale(length)

    def bound(self, p_levels, length) -> Fraction:
        """k! (I_k - sum over j_l <= p_l of C(j)^2)."""
        sl = tuple(slice(0, p + 1) for p in p_levels)
        c = self.ints[sl]
        total = int((self.weights[sl] * c * c).sum())
        deficit = kernel_energy(self.exponents, length) - total * self._scale(length)
        return math.factorial(self.k) * deficit

    def parseval_deficits(self, length) -> list[Fraction]:
        """Energy deficit I_k - sum_{max j <= p} C(j)^2 for p = 0..table p."""
        out = []
        for p in range(self.p + 1):
            sl = (slice(0, p + 1),) * self.k
            c = self.ints[sl]
            total = int((self.weights[sl] * c * c).sum())
            out.append(kernel_energy(self.exponents, length)
                       - total * self._scale(length))
        return out


def pair_error(p: int, length) -> Fraction:
    """Closed-form error of two distinct components: L^2 / (4 (2p + 1))."""
    return Fraction(length) ** 2 / (4 * (2 * p + 1))


def quad_coefficient(j, exponents, length: float) -> float:
    """Kernel projection onto phi_{j_1} x ... x phi_{j_k} on [0, length].

    Nested Gauss-Legendre quadrature in time space, innermost variable
    first; the node count makes every level exact for the polynomial
    integrand, so the result carries only rounding error.
    """
    k = len(j)
    degree = sum(j) + sum(exponents) + k
    x, wts = npleg.leggauss(degree // 2 + 2)
    upper = np.array([float(length)])
    acc = np.array([1.0])
    for level in reversed(range(k)):
        half = upper[..., None] / 2.0
        s = half * (x + 1.0)
        unit = np.zeros(j[level] + 1)
        unit[-1] = 1.0
        phi = npleg.legval(2.0 * s / length - 1.0, unit) \
            * math.sqrt((2 * j[level] + 1) / length)
        acc = acc[..., None] * half * wts * s ** exponents[level] * phi
        upper = s
    return float(acc.sum())


def wick_value(labels, coeffs: np.ndarray, zeta: dict) -> tuple[float, float]:
    """Truncated expansion evaluated as sum_j C(j) times a Wick product.

    For each Wiener label, the positions carrying it contribute
    prod_m He_r(zeta_m), r being how often mode m occurs among them
    (probabilists' Hermite polynomials); a time position contributes its
    deterministic row entry. Without repeated labels this is the tensor
    contraction sum_j C(j) prod_l zeta_{j_l}. ``coeffs`` holds the floats
    C(j) over {0..p}^k. Returns the value and the sum of absolute terms,
    the scale of its rounding error.
    """
    rows = [np.asarray(zeta[lab], dtype=float) for lab in labels]
    if len(set(lab for lab in labels if lab)) == sum(1 for lab in labels if lab):
        value = float(np.einsum(coeffs, list(range(len(labels))),
                                *itertools.chain.from_iterable(
                                    (row, [pos]) for pos, row in enumerate(rows))))
        scale = float(np.einsum(np.abs(coeffs), list(range(len(labels))),
                                *itertools.chain.from_iterable(
                                    (np.abs(row), [pos])
                                    for pos, row in enumerate(rows))))
        return value, scale
    groups = blocks(labels)
    time_pos = [pos for pos, lab in enumerate(labels) if lab == 0]
    memo: dict = {}

    def block_factor(lab: int, modes: tuple) -> float:
        key = (lab, modes)
        if key not in memo:
            f = 1.0
            for mode in set(modes):
                r = modes.count(mode)
                unit = np.zeros(r + 1)
                unit[-1] = 1.0
                f *= float(hermeval(zeta[lab][mode], unit))
            memo[key] = f
        return memo[key]

    terms = []
    for j in itertools.product(range(coeffs.shape[0]), repeat=len(labels)):
        c = coeffs[j]
        if c == 0.0:
            continue
        t = c
        for pos in time_pos:
            t *= zeta[0][j[pos]]
        for grp in groups:
            t *= block_factor(labels[grp[0]], tuple(sorted(j[pos] for pos in grp)))
        terms.append(t)
    return math.fsum(terms), math.fsum(abs(t) for t in terms)
