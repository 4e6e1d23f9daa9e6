"""Shared test helpers: small constructors and seeded random inputs."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from matsemi import Matrix, Scalar


def M(rows) -> Matrix:
    return Matrix.from_rows(rows)


def outer(u, v) -> Matrix:
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    return Matrix.from_rows([[a * b for b in v] for a in u])


def ones(n: int) -> Matrix:
    return Matrix.from_rows([[1] * n for _ in range(n)])


def random_int_matrix(rng: random.Random, rows: int, cols: int,
                      lo: int = -2, hi: int = 2) -> Matrix:
    return Matrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_pattern(rng: random.Random, n: int, density: float = 0.4) -> Matrix:
    return Matrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(n)]
         for _ in range(n)])


def random_nonneg_matrix(rng: random.Random, n: int, hi: int = 3) -> Matrix:
    return Matrix.from_rows(
        [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)])


def random_signs(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple([1] + [rng.choice((1, -1)) for _ in range(n - 1)])


def sign_conjugate(m: Matrix, signs) -> Matrix:
    n = m.rows
    return Matrix.from_rows(
        [[Scalar(signs[i] * signs[j]) * m.entry(i, j) for j in range(n)]
         for i in range(n)])


def primitive_gaussian(x: Scalar) -> Scalar:
    """The Gaussian integer a + bi with gcd(a, b) = 1 on the ray of the
    nonzero x: x times a positive rational."""
    scale = math.lcm(x.re.denominator, x.im.denominator)
    a, b = int(x.re * scale), int(x.im * scale)
    g = math.gcd(a, b)
    return Scalar(a // g, b // g)
