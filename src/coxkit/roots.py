"""Minimal roots of a Coxeter system, in exact arithmetic.

Brink and Howlett (Math. Ann. 296, 1993; see also Bjorner and Brenti, GTM
231, section 4.7) showed that a finitely generated Coxeter system has finitely
many minimal (elementary) roots: positive roots that dominate no other
positive root.  Let B be the bilinear form with B(a_s, a_t) = -cos(pi/m(s,t))
(-1 when m is infinite).  For a minimal root b and a generator s there are
three cases:

  * b = a_s, and s*b is negative;
  * B(a_s, b) <= -1, and s*b dominates a_s, so it is not minimal;
  * otherwise s*b is again a minimal root.

A non-minimal root reached from a simple root along a reduced word never
becomes negative later in that word, so the table of these transitions
decides the word problem (see ``core``).

Numbers live in Z[c] with c = 2cos(pi/M), M the lcm of the finite orders
m >= 3, of degree D: integer coordinates on 1, 2cos(pi/M), ...,
2cos((D-1)pi/M), with the minimal polynomial of c, which comes from the
cyclotomic polynomial of order 2M, reducing the higher 2cos(k pi/M).
Equality compares coordinates; a sign is decided by evaluating on a rational
interval around c, isolated by bounds on the cosine and bisected until the
sign is certain.  No floating point is involved.
"""

from __future__ import annotations

import math

#: ``s*b`` is negative: b is the simple root of s.
NEG = -1
#: ``s*b`` is a positive root that is not minimal.
NONMIN = -2


def _quotient(num: list, den: list) -> list:
    """Exact quotient of integer polynomials (coefficients low to high) by a
    monic one."""
    rem = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        q = quot[shift] = rem[shift + len(den) - 1]
        for i, d in enumerate(den):
            rem[shift + i] -= q * d
    return quot


def _cyclotomic(n: int) -> list:
    """The cyclotomic polynomial of order n: z^d - 1 over those of the
    proper divisors of d, for each divisor d of n in turn."""
    phis = {}
    for d in range(1, n + 1):
        if n % d == 0:
            p = [-1] + [0] * (d - 1) + [1]
            for e, phi in phis.items():
                if d % e == 0:
                    p = _quotient(p, phi)
            phis[d] = p
    return phis[n]


def _add(p: list, q: list) -> list:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, a in enumerate(q):
        out[i] += a
    return out


def _dyadic(p: list, x: int, k: int) -> int:
    """2^(k deg p) p(x / 2^k): an integer with the sign of p at x / 2^k."""
    value = 0
    for i, a in enumerate(reversed(p)):
        value = value * x + (a << (k * i))
    return value


class Field:
    """Z[c] for c = 2cos(pi/M).

    Elements are tuples of D integers: coordinates on 1, C_1(c), ...,
    C_(D-1)(c), where C_k(c) = 2cos(k pi/M) and D is the degree of c.  On
    this basis the numbers met in a root system keep small coordinates; on
    the powers of c, which is close to 2 when M is large, they grow huge.  c
    is held between the dyadic rationals lo / 2^k < c < hi / 2^k, refined as
    signs need it.
    """

    def __init__(self, order: int) -> None:
        # Phi_2M(z) = z^d Psi(z + 1/z) for the minimal polynomial Psi of c:
        # Psi = phi[d] + sum over k >= 1 of phi[d + k] C_k
        phi = _cyclotomic(2 * order)
        d = (len(phi) - 1) // 2
        psi = [phi[d]]
        prev, cur = [2], [0, 1]
        for k in range(1, d + 1):
            psi = _add(psi, [phi[d + k] * a for a in cur])
            prev, cur = cur, _add([0] + cur, [-a for a in prev])
        self.order = order
        self.poly = psi
        self.degree = d
        # C_n(c) for n >= d; C_d from Psi(c) = 0
        self._high = {d: tuple(-phi[d + k] for k in range(d))}
        if d == 1:
            c = -phi[1]  # 0 or 1: M is 2 or 3
            self._interval = (c, c, 0)
        else:
            self._interval = self._isolate()

    def _isolate(self) -> tuple:
        """An interval holding c and no other root of its minimal polynomial.

        With x = pi/M, M >= 4, the roots are 2cos(kx) for odd k prime to M,
        so c = 2cos(x) is the largest and the others are at most 2cos(3x).
        From 1 - y^2/2 <= cos y <= 1 - y^2/2 + y^4/24 and 3 < pi < 22/7:
        2cos(3x) < 2 - 43/M^2 < 2 - (22/7M)^2 - 1/M^2, and 2 - (22/7M)^2 < c.
        So (lo, 2) holds c alone, for lo the value 2 - (22/7M)^2 rounded
        down to a multiple of 1/2^k <= 1/M^2.
        """
        k = 2 * self.order.bit_length()
        lo = (2 << k) + (-484 << k) // (49 * self.order * self.order)
        return lo, 2 << k, k

    def _chebyshev_value(self, n: int) -> tuple:
        """C_n(c) = 2cos(n pi/M) in coordinates."""
        d = self.degree
        if n < d:
            return self.constant(2) if n == 0 else tuple(int(i == n) for i in range(d))
        for m in range(max(self._high) + 1, n + 1):
            # C_m = c C_(m-1) - C_(m-2), where c * 1 = C_1 and, for k >= 1,
            # c C_k = C_(k+1) + C_(k-1)
            value = [-x for x in self._chebyshev_value(m - 2)]
            for k, x in enumerate(self._high[m - 1]):
                if x:
                    for i in ((1,) if k == 0 else (k - 1, k + 1)):
                        if i < d:
                            value[i] += 2 * x if i == 0 else x
                        else:
                            value = [v + x * t for v, t in zip(value, self._high[d])]
            self._high[m] = tuple(value)
        return self._high[n]

    def constant(self, n: int) -> tuple:
        return (n,) + (0,) * (self.degree - 1)

    def two_cos(self, m: int) -> tuple:
        """2cos(pi/m), for m = 2 or m dividing the field's order."""
        if m == 2:
            return self.constant(0)
        return self._chebyshev_value(self.order // m)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        # 1 * C_j = C_j, and C_i C_j = C_(i+j) + C_|i-j|
        d = self.degree
        terms = [0] * (2 * d - 1)
        out = [0] * d
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        if i == 0 or j == 0:
                            out[i + j] += x * y
                        else:
                            terms[i + j] += x * y
                            terms[abs(i - j)] += x * y
        value = tuple(out)
        for n, coef in enumerate(terms):
            if coef:
                value = self.add(value, tuple(coef * x for x in self._chebyshev_value(n)))
        return value

    def sign(self, a: tuple) -> int:
        """-1, 0 or 1: zero exactly when every coordinate is zero, otherwise
        decided on the interval around c, bisected until the sign is certain.

        Each C_j with j < D is monotone on the interval: its turning points
        2cos(i pi/j) lie at most at 2cos(pi/(D-1)) < 2 - 31/M^2, below it.
        So a_j C_j(c) lies between its values at the ends.
        """
        if not any(a):
            return 0
        d = self.degree
        lo, hi, k = self._interval
        while True:
            # 2^(jk) C_j(x / 2^k) by the recurrence, at both ends
            ends = []
            for x in (lo, hi):
                values, prev, cur = [], 2, x
                for _ in range(1, d):
                    values.append(cur)
                    prev, cur = cur, x * cur - (prev << (2 * k))
                ends.append(values)
            low = high = a[0] << (k * (d - 1))
            for j in range(1, d):
                at_lo = a[j] * ends[0][j - 1] << (k * (d - 1 - j))
                at_hi = a[j] * ends[1][j - 1] << (k * (d - 1 - j))
                low += min(at_lo, at_hi)
                high += max(at_lo, at_hi)
            if low > 0 or high < 0:
                self._interval = (lo, hi, k)
                return 1 if low > 0 else -1
            # the minimal polynomial is monic and c its largest root
            lo, mid, hi, k = 2 * lo, lo + hi, 2 * hi, k + 1
            if _dyadic(self.poly, mid, k) > 0:
                hi = mid
            else:
                lo = mid


def minimal_root_table(orders) -> tuple:
    """Transition table of the minimal roots of the system with order table ``orders``.

    Root i < rank is the simple root of generator i.  Row i gives, for each
    generator s, ``NEG``, ``NONMIN`` or the index of the minimal root s*b_i.
    """
    rank = len(orders)
    finite = [m for row in orders for m in row if m != math.inf and m >= 3]
    field = Field(math.lcm(*finite) if finite else 2)
    zero, two = field.constant(0), field.constant(2)
    # 2B(a_s, a_t), so that s*b = b - 2B(a_s, b) a_s stays integral
    gram = [[two if s == t
             else field.constant(-2) if orders[s][t] == math.inf
             else tuple(-x for x in field.two_cos(orders[s][t]))
             for t in range(rank)] for s in range(rank)]
    roots = [tuple(field.constant(1) if i == s else zero for i in range(rank)) for s in range(rank)]
    index = {root: i for i, root in enumerate(roots)}
    rows = []
    for i, beta in enumerate(roots):  # grows while it is walked
        row = []
        for s in range(rank):
            if i == s:
                row.append(NEG)
                continue
            b = zero
            for t in range(rank):
                if any(beta[t]):
                    b = field.add(b, field.mul(gram[s][t], beta[t]))
            if field.sign(field.add(b, two)) <= 0:
                row.append(NONMIN)
                continue
            gamma = list(beta)
            gamma[s] = field.add(beta[s], tuple(-x for x in b))
            gamma = tuple(gamma)
            if gamma not in index:
                index[gamma] = len(roots)
                roots.append(gamma)
            row.append(index[gamma])
        rows.append(tuple(row))
    return tuple(rows)
