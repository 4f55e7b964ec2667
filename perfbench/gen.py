"""Seeded input generator for the benchmark.

Every input the benchmark hands to grosslat comes from here, as a pure
function of the workload seed: algebra parameters chosen by the residue
class of p, maximal orders saturated from Z<i, j>, and fixture files
for the CLI.  An algebra is accepted only when its Hilbert symbols show it
ramified exactly at {p, infinity}.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from grosslat import (
    AlgebraParams,
    FixtureConfig,
    Order,
    exterior_square_form,
    extend_to_maximal,
    order_from_pair,
    search_elements,
)
from grosslat.linalg import is_prime

# The residue classes of odd p; choose_a picks the parameter a for each.
CLASSES = ("3mod4", "5mod8", "1mod8")


def residue_class(p: int) -> str:
    if p % 4 == 3:
        return "3mod4"
    if p % 8 == 5:
        return "5mod8"
    if p % 8 == 1:
        return "1mod8"
    raise ValueError(f"p = {p} has no residue class (p = 2?)")


def primes_in(lo: int, hi: int, cls: str | None = None) -> list[int]:
    return [p for p in range(max(lo, 3), hi + 1)
            if is_prime(p) and (cls is None or residue_class(p) == cls)]


def legendre(n: int, q: int) -> int:
    """Legendre symbol (n/q) for an odd prime q."""
    r = pow(n % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


def _split(n: int, q: int) -> tuple[int, int]:
    """(v, u) with n = q^v * u and q not dividing u."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v, n


def hilbert_symbol(a: int, b: int, v: int) -> int:
    """The Hilbert symbol (a, b)_v for nonzero integers; v = 0 means infinity.

    Formulas of Serre, A Course in Arithmetic, ch. III, Thm. 1.
    """
    if v == 0:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split(a, v)
    beta, w = _split(b, v)
    if v == 2:
        def eps(x):
            return ((x - 1) // 2) % 2

        def omega(x):
            return ((x * x - 1) // 8) % 2
        e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if e % 2 else 1
    sign = -1 if (alpha * beta * ((v - 1) // 2)) % 2 else 1
    return sign * legendre(u, v) ** beta * legendre(w, v) ** alpha


def _prime_divisors(n: int) -> set[int]:
    out, f = set(), 2
    n = abs(n)
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


def ramified_places(a: int, p: int) -> set[int]:
    """Places (0 = infinity) where (-a, -p | Q) ramifies."""
    places = {0, 2} | _prime_divisors(a) | _prime_divisors(p)
    return {v for v in places if hilbert_symbol(-a, -p, v) == -1}


def check_algebra(a: int, p: int) -> AlgebraParams:
    """AlgebraParams(a, p), or ValueError unless it ramifies exactly at {p, inf}."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    ram = ramified_places(a, p)
    if ram != {0, p}:
        raise ValueError(f"(-{a}, -{p} | Q) ramifies at {sorted(ram)}, "
                         f"not exactly at {{{p}, inf}}")
    return AlgebraParams(a, p)


def choose_a(p: int) -> int:
    """a = 1 for p = 3 mod 4, a = 2 for p = 5 mod 8, else the least prime
    q = 3 mod 4 with (p/q) = -1."""
    cls = residue_class(p)
    if cls == "3mod4":
        return 1
    if cls == "5mod8":
        return 2
    q = 3
    while not (is_prime(q) and q % 4 == 3 and legendre(p, q) == -1):
        q += 4
    return q


def maximal_order(p: int) -> Order:
    """Saturation of Z<i, j> in the algebra chosen for p."""
    algebra = check_algebra(choose_a(p), p)
    order = extend_to_maximal(order_from_pair(algebra.i, algebra.j))
    if order.reduced_discriminant() != p:
        raise ValueError(f"saturation stopped at discriminant "
                         f"{order.reduced_discriminant()}, not {p}")
    return order


def trace_p_element(order: Order):
    """(alpha, ell): the first element of trace p and norm ell*p, by least ell."""
    p = order.algebra.p
    ell = -(-p // 4)
    while True:
        found = search_elements(order, p, ell * p)
        if found:
            return found[0], ell
        ell += 1


def fixture_config(label: str, order: Order) -> FixtureConfig:
    """A fixture for `order` with a trace-p alpha and the invariants the CLI checks."""
    alpha, ell = trace_p_element(order)
    p = order.algebra.p
    gross = order.gross_lattice()
    gram = gross.minkowski_reduced().gram()
    content, form = exterior_square_form(gram)
    expected = {
        "reduced_discriminant": p,
        "gross_det": int(gross.det()),
        "gross_gram_diagonal": [int(v) for v in gram.diagonal],
        "content": content,
        "form": form.to_dict(),
    }
    return FixtureConfig(label, order.algebra, list(order.lattice.canonical_basis),
                         alpha, ell, expected)


def write_fixture(config: FixtureConfig, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{config.label}.json"
    path.write_text(json.dumps(config.to_dict(), indent=2) + "\n", "utf-8")
    return path


def one_per_class(rng: random.Random, lo: int, hi: int) -> list[int]:
    """One prime per residue class from [lo, hi], in CLASSES order."""
    return [rng.choice(primes_in(lo, hi, cls)) for cls in CLASSES]


def combine(coeffs, basis):
    """The integer combination sum(c * b) of quaternions."""
    total = basis[0] * Fraction(0)
    for c, b in zip(coeffs, basis):
        total = total + c * b
    return total
