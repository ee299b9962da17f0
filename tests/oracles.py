"""Brute-force reference implementations, deliberately unclever.

Everything here recomputes answers straight from definitions by exhaustive
enumeration, sharing as little code as possible with the library paths it
checks.  Slow on purpose; tests pick sizes accordingly.
"""

from collections import Counter
from itertools import combinations, permutations, product
from typing import NamedTuple

from hesspin.billey import Polynomial
from hesspin.hess334 import FixedPointClass
from hesspin.permutations import canonical_word, compose, identity, simple


class Poly(Polynomial):
    """A ``Polynomial`` with ring arithmetic, which the package never does:
    sums, negation, differences and products with polynomials and
    integers, and the total degree."""

    __slots__ = ()

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, c, nvars):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i, nvars):
        if not 1 <= i <= nvars:
            raise ValueError(f"t_{i} out of range for {nvars} variables")
        exps = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls(nvars, {exps: 1})

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, int):
            return Poly.constant(other, self.nvars)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)


def all_permutations(n):
    """All of S_n in lexicographic one-line order."""
    return tuple(permutations(range(1, n + 1)))


def brute_inversions(w):
    """The number of pairs of positions i < j with w(i) > w(j), pair by pair."""
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


def random_reduced_word(w, rng):
    """A reduced word for ``w`` built by stripping a random descent each step.

    ``rng`` is a random.Random instance; a seeded one gives a reproducible
    word.  Not uniform over reduced words, but reaches enough of them to
    exercise word-independence.
    """
    cur = list(w)
    stripped = []
    while True:
        ds = [i for i in range(len(cur) - 1) if cur[i] > cur[i + 1]]
        if not ds:
            break
        i = rng.choice(ds)
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
        stripped.append(i + 1)
    return tuple(reversed(stripped))


def brute_fillings(diagram, h):
    """Permissible fillings by filtering every arrangement of 1..n."""
    n = sum(diagram)
    out = []
    for perm in permutations(range(1, n + 1)):
        rows = []
        k = 0
        for length in diagram:
            rows.append(tuple(perm[k : k + length]))
            k += length
        ok = all(
            row[i] <= h[row[i + 1] - 1]
            for row in rows
            for i in range(len(row) - 1)
        )
        if ok:
            out.append(tuple(rows))
    return out


def brute_dimension_pairs(filling, h):
    """Dimension pairs straight from the three defining clauses."""
    n = sum(len(row) for row in filling)
    pos = {
        filling[r][c]: (r, c)
        for r in range(len(filling))
        for c in range(len(filling[r]))
    }
    pairs = set()
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            ra, ca = pos[a]
            rb, cb = pos[b]
            if not (cb < ca or (cb == ca and rb > ra)):
                continue
            if ca + 1 < len(filling[ra]) and b > h[filling[ra][ca + 1] - 1]:
                continue
            pairs.add((a, b))
    return pairs


def brute_records(diagram):
    """A function of h giving {filling: dimension pairs} for every
    permissible filling of ``diagram``: ``brute_fillings`` and
    ``brute_dimension_pairs`` for many h at once.

    Every arrangement of 1..n is sliced into rows once, with its adjacent
    pairs and the pairs (a, b) that pass the position clause, each with
    the box right of a (or None); for one h only the clauses that read h
    are tested."""
    n = sum(diagram)
    # one bit per ordered pair (x, y) of values
    bit = {pair: 1 << k for k, pair in enumerate(product(range(1, n + 1), repeat=2))}
    arrangements = []
    for perm in permutations(range(1, n + 1)):
        rows, k = [], 0
        for length in diagram:
            rows.append(tuple(perm[k : k + length]))
            k += length
        adjacent = sum(bit[pair] for row in rows for pair in zip(row, row[1:]))
        pos = {x: (r, c) for r, row in enumerate(rows) for c, x in enumerate(row)}
        candidates = []
        for a in range(1, n + 1):
            ra, ca = pos[a]
            right = rows[ra][ca + 1] if ca + 1 < len(rows[ra]) else None
            for b in range(a + 1, n + 1):
                rb, cb = pos[b]
                if cb < ca or (cb == ca and rb > ra):
                    candidates.append((a, b, right))
        arrangements.append((tuple(rows), adjacent, candidates))

    def records(h):
        # the adjacencies x y that break row[i] <= h(row[i + 1])
        bad = sum(m for (x, y), m in bit.items() if x > h[y - 1])
        return {
            rows: {(a, b) for a, b, r in candidates if r is None or b <= h[r - 1]}
            for rows, adjacent, candidates in arrangements
            if not adjacent & bad
        }

    return records


def inversion_tops(w):
    """(x_2, ..., x_n) where x_l counts inversions whose larger value is l."""
    counts = [0] * (len(w) + 1)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                counts[w[i]] += 1
    return tuple(counts[2:])


def bruhat_leq_oracle(v, w):
    """Whether v <= w by the subword property: some l(v)-letter subword of
    a reduced word for w multiplies to v.  Practical only for small n."""
    b = canonical_word(w)
    n = len(w)
    for pos in combinations(range(len(b)), brute_inversions(v)):
        prod = identity(n)
        for j in pos:
            prod = compose(prod, simple(b[j], n))
        if prod == v:
            return True
    return False


def bruhat_leq_tableau(v, w):
    """Whether v <= w by the tableau criterion: for each right descent k of
    v, the sorted initial segments v(1..k) and w(1..k) compare entrywise."""
    assert len(v) == len(w), "size mismatch"
    for k in range(1, len(v)):
        if v[k - 1] > v[k]:
            if any(a > b for a, b in zip(sorted(v[:k]), sorted(w[:k]))):
                return False
    return True


def weak_leq_oracle(x, v):
    """Whether x <= v in the right weak order: v = x u with lengths adding,
    that is l(x) + l(x^-1 v) = l(v), with x^-1 v read off position by
    position."""
    assert len(x) == len(v), "size mismatch"
    place = {value: pos + 1 for pos, value in enumerate(x)}
    rest = tuple(place[value] for value in v)
    return brute_inversions(x) + brute_inversions(rest) == brute_inversions(v)


def weak_down_set(rows, n):
    """Every permutation of 1..n at or below one of ``rows`` in the right
    weak order, over all of S_n."""
    return {
        x
        for x in permutations(range(1, n + 1))
        if any(weak_leq_oracle(x, v) for v in rows)
    }


def relation_tables(points, rolls):
    """The four Bruhat tables the 334 theorem reads, dense, by the tableau
    criterion: below[a][b] is points[a] <= points[b], roll_below[a][b] is
    rolls[a] <= points[b], and simple_below[i - 1][a] (simple_below_roll)
    is s_i <= points[a] (rolls[a])."""
    n = len(points[0])
    simples = [simple(i, n) for i in range(1, n)]
    return (
        [[bruhat_leq_tableau(v, w) for w in points] for v in points],
        [[bruhat_leq_tableau(v, w) for w in points] for v in rolls],
        [[bruhat_leq_tableau(s, w) for w in points] for s in simples],
        [[bruhat_leq_tableau(s, r) for r in rolls] for s in simples],
    )


def _h1(subset):
    # the largest j with 1..j all in the subset; fails when 1 is not in it
    return max(j for j in range(1, max(subset) + 1) if set(range(1, j + 1)) <= subset)


def bruhat_sweeps(
    points, classes, subsets, below, roll_below, simple_below, simple_below_roll
):
    """The 334 theorem's six Bruhat-order lemmas by plain loops over every
    pair (a, b) of points, reading the dense tables of ``relation_tables``:
    (name, witnesses) pairs, witnesses in loop order."""
    n = len(points[0])
    pet = (FixedPointClass.PETERSON_NO_321, FixedPointClass.PETERSON_321)
    non_pet = (FixedPointClass.TYPE_312, FixedPointClass.TYPE_231)
    pairs = [(a, b) for a in range(len(points)) for b in range(len(points))]
    out = []

    out.append(("rolldown-bruhat-equivalence", tuple(
        (points[a], points[b]) for a, b in pairs if roll_below[a][b] != below[a][b]
    )))

    member = []
    for a, w in enumerate(points):
        for i in range(1, n):
            if simple_below[i - 1][a] != (i in subsets[a]):
                member.append((w, i, "fixed-point"))
            if simple_below_roll[i - 1][a] != (i in subsets[a]):
                member.append((w, i, "rolldown"))
    out.append(("simple-reflection-membership", tuple(member)))

    out.append(("subset-monotonicity", tuple(
        (points[a], points[b])
        for a, b in pairs
        if (below[a][b] or roll_below[a][b]) and not subsets[a] <= subsets[b]
    )))

    contain = []
    for a, b in pairs:
        cw, cwp = classes[a], classes[b]
        qualifying = (
            cw == cwp
            or (cw in pet and cwp in pet)
            or (cw is FixedPointClass.PETERSON_NO_321 and cwp in non_pet)
            or (cw in non_pet and cwp in pet)
        )
        if qualifying and below[a][b] != (subsets[a] <= subsets[b]):
            contain.append((points[a], points[b]))
    out.append(("containment-criterion", tuple(contain)))

    forbidden = []
    for a, b in pairs:
        cw, cwp = classes[a], classes[b]
        bad = (
            cwp is FixedPointClass.PETERSON_NO_321
            and cw is not FixedPointClass.PETERSON_NO_321
        ) or (
            cwp is FixedPointClass.TYPE_231
            and cw in (FixedPointClass.PETERSON_321, FixedPointClass.TYPE_312)
        )
        if bad and (below[a][b] or roll_below[a][b]):
            forbidden.append((points[a], points[b]))
    out.append(("forbidden-relations", tuple(forbidden)))

    segment = []
    for a, b in pairs:
        if classes[a] not in (FixedPointClass.PETERSON_321, FixedPointClass.TYPE_231):
            continue
        if classes[b] is not FixedPointClass.TYPE_312:
            continue
        expected = subsets[a] <= subsets[b] and _h1(subsets[b]) >= _h1(subsets[a]) + 1
        if below[a][b] != expected:
            segment.append((points[a], points[b]))
    out.append(("initial-segment-criterion", tuple(segment)))
    return tuple(out)


def brute_subword_table(b, n, sizes=None):
    """Map each v in S_n to the position tuples of the l(v)-letter subwords
    of b multiplying to v, in lexicographic order, by multiplying out every
    combination of positions; only combinations of the given ``sizes``
    when those are given."""
    table = {}
    for k in range(len(b) + 1) if sizes is None else sizes:
        for pos in combinations(range(len(b)), k):
            prod = identity(n)
            for j in pos:
                prod = compose(prod, simple(b[j], n))
            if brute_inversions(prod) == k:
                table.setdefault(prod, []).append(pos)
    return table


class Root(NamedTuple):
    """The linear form t_lower - t_upper."""

    lower: int
    upper: int

    def s1(self) -> int:
        """Coefficient of t after the projection t_i -> (n + 1 - i) t."""
        return self.upper - self.lower


def roots_along_word(b, n):
    """All roots r(j, b) for j = 1..len(b), via running prefix products,
    forward from the identity: the derivation ``billey._column`` is
    checked against, which works backward from the word's product."""
    prefix = list(identity(n))
    roots = []
    for i in b:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {i} out of range for S_{n}")
        roots.append(Root(prefix[i - 1], prefix[i]))
        # extend the prefix: right multiplication swaps entries i, i+1
        prefix[i - 1], prefix[i] = prefix[i], prefix[i - 1]
    return tuple(roots)


def brute_root(b, j, n):
    """(lo, hi) with r(j+1, b) = t_lo - t_hi, prefix computed from scratch."""
    p = identity(n)
    for letter in b[:j]:
        p = compose(p, simple(letter, n))
    return p[b[j] - 1], p[b[j]]


def brute_summand_table(b, n, sizes=None):
    """Map each v in S_n reached by ``brute_subword_table`` to the Counter
    of (coeff, l(v)) over its subwords: each subword's roots from
    ``brute_root``, substituted t_i -> (n + 1 - i) t and multiplied."""
    weights = []
    for j in range(len(b)):
        lo, hi = brute_root(b, j, n)
        weights.append((n + 1 - lo) - (n + 1 - hi))
    table = {}
    for v, subwords in brute_subword_table(b, n, sizes).items():
        counts = Counter()
        for pos in subwords:
            coeff = 1
            for j in pos:
                coeff *= weights[j]
            counts[coeff, len(pos)] += 1
        table[v] = counts
    return table


def brute_sigma(v, w, b):
    """Billey's sum over plain position combinations, no pruning."""
    n = len(w)
    target = brute_inversions(v)
    total = Poly.zero(n)
    for pos in combinations(range(len(b)), target):
        prod = identity(n)
        for j in pos:
            prod = compose(prod, simple(b[j], n))
        if prod != v:
            continue
        term = Poly.one(n)
        for j in pos:
            lo, hi = brute_root(b, j, n)
            term = term * (Poly.variable(lo, n) - Poly.variable(hi, n))
        total = total + term
    return total


def brute_project(p, n):
    """(coefficient, degree) after t_i -> (n + 1 - i) t, by substitution."""
    if not p.terms:
        return (0, 0)
    degrees = {sum(e) for e in p.terms}
    assert len(degrees) == 1, "projection of a non-homogeneous value"
    coeff = 0
    for exps, c in p.terms.items():
        prod = c
        for i, e in enumerate(exps):
            prod *= (n - i) ** e
        coeff += prod
    return (coeff, degrees.pop()) if coeff else (0, 0)


def all_diagrams(n):
    """Every Young diagram with n boxes, as weakly decreasing row lengths."""
    def parts(rest, cap):
        if rest == 0:
            yield ()
        for p in range(min(rest, cap), 0, -1):
            for tail in parts(rest - p, p):
                yield (p,) + tail

    return list(parts(n, n))


def all_hessenberg(n):
    """Every Hessenberg function on 1..n: weakly increasing, i <= h(i) <= n."""
    return [
        h
        for h in product(range(1, n + 1), repeat=n)
        if all(h[i] >= i + 1 for i in range(n))
        and all(h[i] <= h[i + 1] for i in range(n - 1))
    ]


def all_diagram_h(n):
    """Every (diagram, h) pair of size n."""
    return [(d, h) for d in all_diagrams(n) for h in all_hessenberg(n)]


def regular_poincare(h):
    """Betti numbers of the regular nilpotent Hessenberg variety of h, the
    coefficients of prod_j [h(j) - j + 1]_q with [m]_q = 1 + q + ... +
    q^(m-1), multiplied out one factor at a time."""
    coeffs = [1]
    for j, hj in enumerate(h, start=1):
        m = hj - j + 1
        out = [0] * (len(coeffs) + m - 1)
        for i, c in enumerate(coeffs):
            for k in range(m):
                out[i + k] += c
        coeffs = out
    return tuple(coeffs)


def omega_of_word(x):
    """omega(x) as the product of its omega word u_2 ... u_n, u_l = s_(l-1)
    s_(l-2) ... s_(l-x_l), each letter s_i swapping positions i and i + 1
    of the one-line tuple, starting from the identity."""
    w = list(range(1, len(x) + 2))
    for l, xl in enumerate(x, start=2):
        for i in range(l - 1, l - 1 - xl, -1):
            w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def _standard_count(shape):
    """f^shape, the number of standard tableaux, by the hook length formula."""
    cols = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    hooks = 1
    for r, part in enumerate(shape):
        for c in range(part):
            hooks *= (part - c - 1) + (cols[c] - r - 1) + 1
    count = 1
    for k in range(2, sum(shape) + 1):
        count *= k
    return count // hooks


def _semistandard(shape, content):
    """Every semistandard tableau of ``shape`` and ``content``, as rows:
    letter k goes in as a horizontal strip of content[k - 1] boxes, no row
    past its part of ``shape`` or past the row above it before k."""
    tableaux = [tuple(() for _ in shape)]
    for k, count in enumerate(content, start=1):
        grown = []
        for rows in tableaux:
            old = [len(row) for row in rows]

            def place(r, left, new):
                if left == 0:
                    grown.append(tuple(new) + rows[r:])
                    return
                if r == len(shape):
                    return
                cap = shape[r] if r == 0 else min(shape[r], old[r - 1])
                for c in range(min(left, cap - old[r]), -1, -1):
                    place(r + 1, left - c, new + [rows[r] + (k,) * c])

            place(0, count, [])
        tableaux = grown
    return tableaux


def _charge(word):
    """Lascoux-Schutzenberger charge of a word whose content is a partition.
    Standard subwords are taken out in turn: scanning leftward from the
    right end, and cyclically, take a 1, then a 2, and so on up to the
    largest letter left.  Within one, 1 has index 0 and r + 1 has the index
    of r, plus 1 when the scan wrapped past the left end to reach it; the
    charge is the sum of all indices."""
    left = list(range(len(word)))
    total = 0
    while left:
        top = max(word[p] for p in left)
        at, index, taken = len(word), 0, []
        for r in range(1, top + 1):
            spots = [p for p in left if word[p] == r]
            before = [p for p in spots if p < at]
            if before:
                at = max(before)
            else:
                at = max(spots)
                index += 1
            total += index
            taken.append(at)
        left = [p for p in left if p not in taken]
    return total


def springer_poincare(mu):
    """Betti numbers of the Springer fiber of Jordan type ``mu``: the
    coefficients of the sum over partitions lam of f^lam q^n(mu)
    K_(lam,mu)(1/q), where n(mu) = sum_i (i - 1) mu_i and the Kostka-Foulkes
    polynomial K_(lam,mu)(q) is the sum of q^charge over the semistandard
    tableaux of shape lam and content mu, read row by row from the bottom
    row up, each left to right."""
    n_mu = sum(i * part for i, part in enumerate(mu))
    coeffs = [0] * (n_mu + 1)
    for lam in all_diagrams(sum(mu)):
        f = _standard_count(lam)
        for rows in _semistandard(lam, mu):
            word = [v for row in reversed(rows) for v in row]
            coeffs[n_mu - _charge(word)] += f
    return tuple(coeffs)


def specialize(p, a, b):
    """The terms of ``p`` after substituting t_a for t_b, zeros dropped."""
    out = {}
    for exps, coeff in p.terms.items():
        e = list(exps)
        e[a - 1] += e[b - 1]
        e[b - 1] = 0
        key = tuple(e)
        out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def gkm_edges(perms):
    """Each (w, w', a, b) once, where w' is w with the values a < b swapped:
    the fixed points joined by a torus-invariant curve of weight t_a - t_b."""
    out = []
    for w in perms:
        n = len(w)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                w2 = tuple(b if x == a else a if x == b else x for x in w)
                if w < w2:
                    out.append((w, w2, a, b))
    return out


def gkm_violations(sigma, perms):
    """(v, w, w', a, b) where sigma[v, w] - sigma[v, w'] does not vanish at
    t_b = t_a, the condition of Goresky, Kottwitz and MacPherson (Invent.
    Math. 131, 1998) on an equivariant class.  Reads only the polynomials
    in the table ``sigma``, keyed by (v, w)."""
    return [
        (v, w, w2, a, b)
        for v in perms
        for w, w2, a, b in gkm_edges(perms)
        if specialize(sigma[v, w], a, b) != specialize(sigma[v, w2], a, b)
    ]


def vandermonde(n):
    """The product of t_i - t_j over i < j, expanded as a determinant: the
    sum over permutations p of sign(p) prod_i t_i^(n - p(i))."""
    terms = {}
    for p in permutations(range(1, n + 1)):
        sign = (-1) ** sum(
            1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
        )
        terms[tuple(n - x for x in p)] = sign
    return Polynomial(n, terms)
