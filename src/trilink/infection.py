"""Effect of string-link infection on the triple linking number.

The geometry of a multi-disk infection enters only through the 3x3
matrix of algebraic intersection numbers between infection disks and
link components.  Infecting a pairwise-linking-zero link L by a string
link whose closure also has pairwise linking zero shifts mu-bar(123) by
the closure's mu-bar times a signed permutation sum over that matrix.

Sign convention: Borromean rings oriented so that one longitude is the
commutator [x1, x2] of the other two meridians carry mu-bar = +1; an
insertion of the opposite handedness is expressed by negating mu_j.
Neither hypothesis (the two pairwise-linking-zero conditions) can be
checked here -- callers assert them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .intlinalg import det

# the six permutations of (0, 1, 2) with their signs, for the band-sum count
_S3 = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
    ((1, 0, 2), -1),
)


def _check_3x3(rows, what: str) -> tuple[tuple[int, int, int], ...]:
    rows = tuple(tuple(index(x) for x in row) for row in rows)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError(f"{what} must be 3x3")
    return rows


@dataclass(frozen=True, slots=True)
class IntersectionProfile:
    """rows[i][j] = algebraic intersection of disk i with component j."""

    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", _check_3x3(self.rows, "intersection profile"))


@dataclass(frozen=True, slots=True)
class BandSumCounts:
    """Separate positive/negative intersection counts per disk and component."""

    alpha: tuple[tuple[int, int, int], ...]
    beta: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_3x3(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _check_3x3(self.beta, "beta"))
        for name, mat in (("alpha", self.alpha), ("beta", self.beta)):
            if any(x < 0 for row in mat for x in row):
                raise ValueError(f"{name} entries must be nonnegative")

    def net_profile(self) -> IntersectionProfile:
        """alpha - beta: the signed counts the infection formula sees."""
        return IntersectionProfile(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.alpha, self.beta)
            )
        )


def infected_mu(mu_j: int, profile: IntersectionProfile, mu_l: int) -> int:
    """mu-bar(123) after infection: mu_j * det(profile) + mu_l.

    The determinant is antisymmetric under swapping two rows (disks) or
    two columns (components).
    """
    return mu_j * det(profile.rows) + mu_l


def band_sum_expansion(mu_j: int, counts: BandSumCounts, mu_l: int) -> int:
    """The literal eight-term band-sum count, before cancelling to a determinant.

    Expanding the infection into parallel band sums (one per disk/
    component intersection, oriented by its sign) counts each triple of
    strands once; collecting terms by how many reversed strands appear
    gives, per permutation, eight products with sign (-1)^(#reversed).
    Agrees with infected_mu on the net profile alpha - beta, which is
    the point: it is the independent oracle for that formula.
    """
    a, b = counts.alpha, counts.beta
    total = 0
    for sigma, sign in _S3:
        a1, a2, a3 = a[0][sigma[0]], a[1][sigma[1]], a[2][sigma[2]]
        b1, b2, b3 = b[0][sigma[0]], b[1][sigma[1]], b[2][sigma[2]]
        total += sign * (
            a1 * a2 * a3
            - b1 * a2 * a3
            - a1 * b2 * a3
            - a1 * a2 * b3
            + b1 * b2 * a3
            + a1 * b2 * b3
            + b1 * a2 * b3
            - b1 * b2 * b3
        )
    return mu_j * total + mu_l
