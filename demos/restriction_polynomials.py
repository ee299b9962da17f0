"""Equivariant restrictions over reduced subwords and their projections.

The restriction of a Schubert class to a fixed point w is a sum over
reduced subwords of a reduced word for w; the value is independent of
which word is chosen.  Specializing t_i to (n+1-i)t collapses each
polynomial to a single S^1 weight coeff * t^deg.
"""

from hesspin import (
    canonical_word,
    check_upper_triangular,
    hessenberg_334,
    p_restriction,
    p_summand_counts,
    project_s1,
    rolldown_table,
    sigma_restriction,
    single_row,
)

# Full-torus restrictions are exact integer polynomials in t_1..t_n.
print("sigma_v(w) in S_4:")
for v, w in [
    ((1, 2, 4, 3), (1, 2, 4, 3)),
    ((1, 2, 4, 3), (4, 3, 2, 1)),
    ((2, 1, 3, 4), (4, 3, 2, 1)),
    ((4, 3, 2, 1), (4, 3, 2, 1)),
]:
    print(f"  sigma_{v}({w}) = {sigma_restriction(v, w)}")

# The restriction vanishes exactly when v is not below w in Bruhat order.
print(f"\nsigma_(2,1,3,4)((1, 3, 2, 4)) = {sigma_restriction((2, 1, 3, 4), (1, 3, 2, 4))}")

# project_s1 sends t_i to (n+1-i)t; p_restriction composes the two
# steps.  The summands partition the projected value by subword;
# p_summand_counts maps each distinct summand to its number of subwords.
v, w = (2, 1, 4, 3), (4, 3, 2, 1)
full = sigma_restriction(v, w)
print(f"\nsigma_{v}({w}) = {full}")
print(f"projected: {project_s1(full)}")
print(f"p_restriction agrees: {p_restriction(v, w)}")
print(f"summands: {p_summand_counts(v, w)}")

# Stacking p_v(w) over every fixed point v, w of the 334 family gives a
# matrix that is upper triangular against Bruhat order: nonzero on the
# diagonal, zero whenever the rolldown is not below the column's point.
n = 4
h = hessenberg_334(n)
row = single_row(n)
table = rolldown_table(row, h)
report = check_upper_triangular(table)
print(f"\n334 restriction matrix, n = {n}: triangular = {report.passed}")
print("diagonal entries:")
for w in sorted(table):
    word = canonical_word(table[w])
    print(f"  p_{''.join(map(str, table[w]))}({''.join(map(str, w))}) = {p_restriction(table[w], w)}"
          f"  (word {word})")

# A deliberately bad basis fails the same check: send every fixed point
# to the longest element and the diagonal collapses.
bad_report = check_upper_triangular({w: (4, 3, 2, 1) for w in table})
print(f"\nall-w0 control: triangular = {bad_report.passed}, "
      f"{len(bad_report.diagonal_zeros)} zero diagonal entries")
