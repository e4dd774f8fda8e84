"""Rings Z_n, finite modules over them, and their submodule lattices.

A module here is a direct sum of cyclic groups Z_{d_1} x ... x Z_{d_k}
acted on by Z_n, where every d_i divides n.  Elements are residue tuples,
the action is coordinatewise multiplication.  Because the action factors
through repeated addition, every additive subgroup is a submodule.  The
lattice is the product of those of the Sylow p-parts, so enumeration
climbs each part alone along its covers, the steps of index p.  rM,
(0 :_M r), each <e_i> and each submodule of a cyclic Z_d is a coordinate
submodule g_1 Z_{d_1} + ... + g_k Z_{d_k}, with a mask in closed form.

A submodule is its mask: an int with one bit per element position of
the module (see `FiniteModule.position`).  Equality, containment, meet
and order are mask arithmetic, and the element set is derived from the
mask only where a listing is printed.

Every module is a finite abelian group, so each classification is a
fact about a number.  N is second iff its exponent, the c with
Ann_R(N) = cZ_n, is a prime; P is prime iff M/P has prime exponent, the
c with (P :_R M) = cZ_n; N is minimal iff |N| is prime and maximal iff
|M/N| is; and the module properties are facts about |M|, exp(M) and n.
Both exponents are read off with no search: exp(N) is the product of
the exponents of its p-parts, each carried up its part's cover walk as
exp(a + <g>) = max(exp a, |<g>|) (cZ_d in a cyclic Z_d has exponent
d/c), and exp(M/N) is the lcm of the orders |<e_i>| / |<e_i> n N| of
e_i + N over the unit generators e_i, which enumeration reads once per
member of a walked p-part and multiplies across the parts as it does
exp(N) (cZ_d has c).  dM lies in N for d = exp(M/N), the only d with
dM = N if any, so N is dM iff it has the mask of dM.

Let q be the product of the primes dividing exp(M), which enumeration
finds once and hands to the lattice.  The second socle of N is N n M[q],
where M[q] = (0 :_M q); the prime radical, which is also the meet of the
maximals, is qM; S is large iff it contains M[q] and small iff it lies
in qM.  None of these needs a join, a meet or another flag family.
"""
from __future__ import annotations

import re
from math import gcd, lcm, prod
from itertools import product as _cartesian
from typing import NamedTuple

Element = tuple[int, ...]

MAX_MODULE_ORDER = 4096
MAX_LATTICE_SIZE = 20000
# the family `check` runs when given none
DEFAULT_FAMILY = "cyclic:2..60,product:ab<=64,vector:2^3,vector:3^3"


class DescriptorError(ValueError):
    """Malformed module, ring, or family descriptor."""


class SizeGuardError(RuntimeError):
    """A computation would exceed the configured size guards."""


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# at most 640 digits, the least limit Python may put on int(str)
_NUMBER = "([0-9]{1,640})"
_ATOM_RE = re.compile(f"^Z{_NUMBER}$")


def _parse_atoms(text: str) -> tuple[int, ...]:
    parts = text.split("x")
    out = []
    for part in parts:
        m = _ATOM_RE.match(part)
        if not m:
            raise DescriptorError(f"bad descriptor atom {part!r} in {text!r}")
        value = int(m.group(1))
        if value < 2:
            raise DescriptorError(f"modulus must be at least 2, got {value} in {text!r}")
        out.append(value)
    return tuple(out)


class Ring:
    """The ring of integers modulo n.  Ideals are the subgroups dZ_n."""

    __slots__ = ("modulus", "_module", "_lattice")

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise DescriptorError(f"ring modulus must be an integer >= 2, got {modulus!r}")
        self.modulus = modulus
        self._module = None
        self._lattice = None

    def elements(self) -> range:
        return range(self.modulus)

    def as_module(self) -> "FiniteModule":
        """This ring viewed as a module over itself."""
        if self._module is None:
            self._module = FiniteModule(self, (self.modulus,))
        return self._module

    def lattice(self, *, max_order: int = MAX_MODULE_ORDER,
                max_lattice: int = MAX_LATTICE_SIZE) -> "SubmoduleLattice":
        """The ideal lattice, cached after the first call; on every call
        max_order bounds n and max_lattice the lattice's size."""
        module = self.as_module()
        guard_module_order(module, max_order)
        guard_lattice_size(module, max_lattice)
        if self._lattice is None:
            self._lattice = enumerate_submodules(
                module, max_order=max_order, max_lattice=max_lattice)
        return self._lattice

    @property
    def descriptor(self) -> str:
        return f"Z{self.modulus}"

    def __eq__(self, other):
        return isinstance(other, Ring) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Ring", self.modulus))

    def __repr__(self):
        return f"Ring(Z{self.modulus})"


class FiniteModule:
    """A finite Z_n-module given as Z_{d_1} x ... x Z_{d_k}, each d_i | n."""

    __slots__ = ("ring", "invariant_factors", "order", "_hash", "_elements", "_scaled",
                 "_kernels", "_repeats", "_unit_spans", "_lattice_size")

    def __init__(self, ring: Ring, invariant_factors: tuple[int, ...]):
        factors = tuple(invariant_factors)
        if not factors:
            raise DescriptorError("module needs at least one invariant factor")
        for d in factors:
            if not isinstance(d, int) or d < 2:
                raise DescriptorError(f"invariant factor must be an integer >= 2, got {d!r}")
            if ring.modulus % d != 0:
                raise DescriptorError(
                    f"invariant factor {d} does not divide the ring modulus {ring.modulus}")
        self.ring = ring
        self.invariant_factors = factors
        self.order = prod(factors)
        self._hash = hash(("FiniteModule", ring.modulus, factors))
        self._elements = None
        self._scaled = {}
        self._kernels = {}
        self._repeats = {}
        self._unit_spans = None
        self._lattice_size = None

    @property
    def exponent(self) -> int:
        return lcm(*self.invariant_factors)

    @property
    def zero(self) -> Element:
        return (0,) * len(self.invariant_factors)

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic order."""
        if self._elements is None:
            self._elements = tuple(_cartesian(*(range(d) for d in self.invariant_factors)))
        return self._elements

    def scale(self, r: int, x: Element) -> Element:
        return tuple((r * a) % d for a, d in zip(x, self.invariant_factors))

    def contains(self, x) -> bool:
        return (isinstance(x, tuple) and len(x) == len(self.invariant_factors)
                and all(isinstance(a, int) and 0 <= a < d
                        for a, d in zip(x, self.invariant_factors)))

    def position(self, x: Element) -> int:
        """Index of x in `elements()`: its digits in the mixed radix of the factors."""
        p = 0
        for a, d in zip(x, self.invariant_factors):
            p = p * d + a
        return p

    def elements_in(self, mask: int) -> frozenset:
        """The elements whose position bits are set in mask."""
        els = self.elements()
        return frozenset(els[p] for p in bit_positions(mask))

    def translate(self, mask: int, x: Element) -> int:
        """The mask of {m + x : m in mask}.

        Adding t in a component of weight w moves every position whose digit
        there is below d - t up by t*w, and wraps the others down by (d-t)*w;
        the positions with a low digit form the low (d-t)*w bits of every
        block of d*w positions.
        """
        weight = self.order
        for t, d in zip(x, self.invariant_factors):
            weight //= d
            if t:
                block = d * weight
                repeat = self._repeats.get(block)
                if repeat is None:
                    # one bit at the start of every block
                    repeat = ((1 << self.order) - 1) // ((1 << block) - 1)
                    self._repeats[block] = repeat
                low = ((1 << (d - t) * weight) - 1) * repeat
                mask = (mask & low) << t * weight | (mask & ~low) >> (d - t) * weight
        return mask

    def unit_spans(self) -> tuple[int, ...]:
        """The masks of the cyclic components <e_i>, built on first use."""
        if self._unit_spans is None:
            factors = self.invariant_factors
            self._unit_spans = tuple(
                _coordinate_mask(self, [1 if i == j else d for j, d in enumerate(factors)])
                for i in range(len(factors)))
        return self._unit_spans

    def scaled_mask(self, r: int) -> int:
        """The mask of rM = (g_1 Z_{d_1}) + ... for g_i = gcd(r, d_i); cached
        per g = gcd(r, n), which has the same image."""
        g = gcd(r, self.ring.modulus)
        got = self._scaled.get(g)
        if got is None:
            got = self._scaled[g] = _coordinate_mask(
                self, [gcd(g, d) for d in self.invariant_factors])
        return got

    def kernel_mask(self, r: int) -> int:
        """The mask of (0 :_M r) = {m : rm = 0}, whose part in each factor Z_d
        is (d/gcd(r, d))Z_d; cached per g = gcd(r, n)."""
        g = gcd(r, self.ring.modulus)
        got = self._kernels.get(g)
        if got is None:
            got = self._kernels[g] = _coordinate_mask(
                self, [d // gcd(g, d) for d in self.invariant_factors])
        return got

    @property
    def descriptor(self) -> str:
        return "x".join(f"Z{d}" for d in self.invariant_factors)

    def __eq__(self, other):
        return (isinstance(other, FiniteModule) and other.ring == self.ring
                and other.invariant_factors == self.invariant_factors)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteModule({self.descriptor} over Z{self.ring.modulus})"


def parse_factors(module_text: str, ring_text: str | None = None) -> tuple[int, tuple[int, ...]]:
    """Parse 'Z12' or 'Z2xZ4' into the ring modulus and the invariant factors.

    The ring defaults to Z_n for n the least common multiple of the
    invariant factors; an explicit ring must be a common multiple.
    """
    factors = _parse_atoms(module_text.strip())
    if ring_text is None:
        return lcm(*factors), factors
    ring_atoms = _parse_atoms(ring_text.strip())
    if len(ring_atoms) != 1:
        raise DescriptorError(f"ring descriptor must be a single Z<n>, got {ring_text!r}")
    return ring_atoms[0], factors


def parse_descriptor(module_text: str, ring_text: str | None = None) -> tuple[Ring, FiniteModule]:
    """Parse 'Z12' or 'Z2xZ4' into a (ring, module) pair (see `parse_factors`)."""
    modulus, factors = parse_factors(module_text, ring_text)
    ring = Ring(modulus)
    return ring, FiniteModule(ring, factors)


class Submodule:
    """A submodule of `module`, identified by the module and its mask.

    Bit p of `mask` is set when the element at position p of
    `module.elements()` lies in the submodule.  Equality is equal masks
    in equal modules, and `<=`/`<` are mask containment.  `exponent` is
    exp(N) and `quotient_exponent` exp(M/N), which every constructor
    gives; only the canonical generators are computed on first read and
    kept, and the element set is derived from the mask on each read of
    `elements`.
    """

    __slots__ = ("module", "mask", "exponent", "quotient_exponent", "_generators")

    def __init__(self, module: FiniteModule, mask: int, exponent: int, quotient_exponent: int):
        self.module = module
        self.mask = mask
        self.exponent = exponent
        self.quotient_exponent = quotient_exponent
        self._generators = None

    @property
    def generators(self) -> tuple[Element, ...]:
        if self._generators is None:
            self._generators = _canonical_generators(self.module, self.mask)
        return self._generators

    @property
    def elements(self) -> frozenset:
        return self.module.elements_in(self.mask)

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.mask == 1  # the zero element sits at position 0

    @property
    def is_full(self) -> bool:
        return self.mask.bit_count() == self.module.order

    def label(self, symbol: str = "M") -> str:
        """Short name: 0, M, dM when the submodule equals d*M, else generators;
        d can only be exp(M/N), so N is dM iff its mask is that of dM."""
        if self.is_zero:
            return "0"
        if self.is_full:
            return symbol
        d = self.quotient_exponent
        if self.mask == self.module.scaled_mask(d):
            return f"{d}{symbol}"
        return "<" + ",".join(_format_element(g) for g in self.generators) + ">"

    def __eq__(self, other):
        return (isinstance(other, Submodule) and other.mask == self.mask
                and _same_module(other.module, self.module))

    def __hash__(self):
        return hash((self.module._hash, self.mask))

    def __le__(self, other):
        _require_same_module(self, other)
        return self.mask & other.mask == self.mask

    def __lt__(self, other):
        _require_same_module(self, other)
        return self.mask & other.mask == self.mask != other.mask

    def __contains__(self, x):
        module = self.module
        return module.contains(x) and bool(self.mask >> module.position(x) & 1)

    def __repr__(self):
        return f"Submodule({self.label()} of {self.module.descriptor})"


def _quotient_exponent(module: FiniteModule, mask: int) -> int:
    return lcm(*(c.bit_count() // (c & mask).bit_count() for c in module.unit_spans()))


def _format_element(x: Element) -> str:
    if len(x) == 1:
        return str(x[0])
    return "(" + ",".join(str(a) for a in x) + ")"


def _same_module(m: FiniteModule, k: FiniteModule) -> bool:
    # the identity test first: equal modules are nearly always one object
    return m is k or m == k


def _require_same_module(a: Submodule, b: Submodule) -> None:
    if not _same_module(a.module, b.module):
        raise ValueError("submodules live in different modules")


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    bits = bin(mask)[:1:-1]  # least significant digit first, "0b" dropped
    out = []
    p = bits.find("1")
    while p >= 0:
        out.append(p)
        p = bits.find("1", p + 1)
    return out


_FLIP = str.maketrans("01", "10")


def mask_sort_key(mask: int) -> str:
    """Sorts nonzero masks as bit_positions does: read upward, a set bit is the
    smaller digit once complemented, and a mask whose bits run out is a prefix."""
    return bin(mask)[:1:-1].translate(_FLIP)


def _grow(module: FiniteModule, closed: int, g: Element) -> int:
    # Extend the subgroup mask `closed` by the cosets closed + k*g, which
    # already form a subgroup since the group is abelian.  Doubling: with
    # T = closed + {0..m-1}g, T | (T + m*g) is closed + {0..2m-1}g, and
    # once that adds nothing, T + g lies in T, so T is the sum.
    step = g
    while True:
        grown = closed | module.translate(closed, step)
        if grown == closed:
            return closed
        closed = grown
        step = module.scale(2, step)


def _cover(module: FiniteModule, closed: int, g: Element, p: int) -> int:
    # The cover closed + <g> of prime index p: pg lies in closed, so it is
    # the union of the p cosets closed + kg, k < p, each a translate of the
    # one before by g.
    joined = coset = closed
    for _ in range(p - 1):
        coset = module.translate(coset, g)
        joined |= coset
    return joined


def _coordinate_mask(module: FiniteModule, gs) -> int:
    # The mask of g_1 Z_{d_1} + ... + g_k Z_{d_k}, each g_i | d_i: the
    # positions whose digit in each factor is a multiple of its g_i, in a
    # factor of weight w the low w bits of every g*w positions.
    mask = ones = (1 << module.order) - 1
    weight = module.order
    for g, d in zip(gs, module.invariant_factors):
        weight //= d
        if g != 1:
            mask &= ((1 << weight) - 1) * (ones // ((1 << g * weight) - 1))
    return mask


def _closure(module: FiniteModule, gens) -> int:
    closed = 1  # the zero element sits at position 0
    for g in gens:
        closed = _grow(module, closed, g)
    return closed


def _canonical_generators(module: FiniteModule, mask: int) -> tuple[Element, ...]:
    # Greedy pick in element order, then drop anything redundant so the
    # recorded generating set is minimal by construction.
    els = module.elements()
    gens: list[Element] = []
    closed = 1
    while rest := mask & ~closed:
        g = els[(rest & -rest).bit_length() - 1]  # the lowest element not yet spanned
        gens.append(g)
        closed = _grow(module, closed, g)
    pruned = list(gens)
    for g in gens[:-1]:  # the last pick lies outside the span of the others
        trial = [h for h in pruned if h != g]
        if _closure(module, trial) == mask:
            pruned = trial
    return tuple(pruned)


def span(module: FiniteModule, gens) -> Submodule:
    """Smallest submodule containing the given elements; its exponent is
    the lcm of their orders."""
    gens = list(gens)
    for g in gens:
        if not module.contains(g):
            raise ValueError(f"element {g!r} is not in {module.descriptor}")
    factors = module.invariant_factors
    mask = _closure(module, gens)
    exponent = lcm(*(d // gcd(a, d) for g in gens for a, d in zip(g, factors)))
    return Submodule(module, mask, exponent, _quotient_exponent(module, mask))


# The member families a lattice lists, as tests on a member's own numbers;
# the `is_X` flags add a membership check.  N != 0 is second iff each r has
# rN = N (r prime to exp(N)) or rN = 0 (exp(N) | r), iff exp(N) is a prime
# (0 has exponent 1), and dually on M/P; a group of composite order has a
# proper nonzero subgroup, so N != M is minimal iff |N| is a prime, and
# N != 0 maximal iff |M/N| is.
_MEMBER_TESTS = {
    "second": lambda s: _is_prime(s.exponent),
    "prime": lambda s: _is_prime(s.quotient_exponent),
    "minimal": lambda s: not s.is_full and _is_prime(s.mask.bit_count()),
    "maximal": lambda s: not s.is_zero and _is_prime(s.module.order // s.mask.bit_count()),
    "proper_nonzero": lambda s: not s.is_zero and not s.is_full,
}


class ModuleProperties(NamedTuple):
    coreduced: bool
    reduced: bool
    multiplication: bool
    comultiplication: bool
    dac: bool
    strong_comultiplication: bool
    faithful: bool
    hollow: bool
    uniform: bool


def _module_name(module: FiniteModule) -> str:
    """`ring Zn` for Z_n over itself, else `module D over Zn`."""
    ring = module.ring
    return (f"ring {ring.descriptor}" if module.invariant_factors == (ring.modulus,)
            else f"module {module.descriptor} over {ring.descriptor}")


def _refusal(module: FiniteModule, what: str, count: int, guard: int) -> SizeGuardError:
    # past 2^64 by its bit length and unnamed: str() refuses an int of over
    # 4,300 digits, and a product's descriptor can run to 15,000 factors
    bits = count.bit_length()
    shown = (f"{_module_name(module)} {what} {count}" if bits <= 64
             else f"module {what} at least 2^{bits - 1}")
    return SizeGuardError(f"{shown} exceeds the guard {guard}")


def guard_module_order(module: FiniteModule, max_order: int) -> None:
    """Refuse a module of more than max_order elements, naming it."""
    if module.order > max_order:
        raise _refusal(module, "order", module.order, max_order)


def _gaussian(n: int, k: int, p: int) -> int:
    """[n choose k]_p, the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for j in range(k):
        num *= p ** (n - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def lattice_size(module: FiniteModule) -> int:
    """|L(M)|, counted without enumerating and kept on the module.

    L(M) is the product of the lattices of the p-parts.  A p-part of type
    lambda has alpha_lambda(mu; p) subgroups of type mu (Birkhoff; see
    L. M. Butler, Subgroup Lattices and Symmetric Functions, 1994): with
    l, m the conjugates of lambda, mu, the product over i >= 1 of
    p^(m_{i+1}(l_i - m_i)) [l_i - m_{i+1} choose m_i - m_{i+1}]_p, where
    l_i counts the factors p^i divides.  The sum over mu runs down i,
    keyed by m_i.
    """
    if module._lattice_size is None:
        size = 1
        for p in filter(_is_prime, divisors(module.exponent)):
            ks = []  # the p-exponent of each factor that p divides
            for d in module.invariant_factors:
                k = 0
                while d % p == 0:
                    d, k = d // p, k + 1
                if k:
                    ks.append(k)
            if len(ks) == 1:  # a cyclic Z_{p^k} has k + 1 members
                size *= ks[0] + 1
                continue
            ways = {0: 1}  # m_{i+1} -> the ways to pick m_{i+1}, m_{i+2}, ...
            for i in range(max(ks), 0, -1):
                li = sum(k >= i for k in ks)
                ways = {mi: sum(p ** (m * (li - mi)) * _gaussian(li - m, mi - m, p) * w
                                for m, w in ways.items() if m <= mi)
                        for mi in range(li + 1)}
            size *= sum(ways.values())
        module._lattice_size = size
    return module._lattice_size


def guard_lattice_size(module: FiniteModule, max_lattice: int) -> None:
    """Refuse a module of more than max_lattice submodules, naming it."""
    if (size := lattice_size(module)) > max_lattice:
        raise _refusal(module, "lattice size", size, max_lattice)


def enumerate_submodules(module: FiniteModule, *,
                         max_order: int = MAX_MODULE_ORDER,
                         max_lattice: int = MAX_LATTICE_SIZE) -> "SubmoduleLattice":
    """Every submodule of M, as the product of the lattices of its Sylow parts.

    M is the direct sum of its p-parts M[p^a], p^a the p-part of exp(M),
    and each L(M[p^a]) is read as the interval [p^a M, M] over p^a M, the
    sum of the other parts: the chain of the p^j M when M[p^a] is cyclic,
    else walked one cover step per Hasse edge.  A member of L(M) is the
    intersection of one member of each interval, and its exponent, and
    that of M over it, the products of theirs; so a cyclic Z_d gets each
    cZ_d, of exponent d/c and quotient exponent c.  Both guards refuse
    before any cover step: the order first, then `lattice_size`.
    """
    guard_module_order(module, max_order)
    # past the order guard, as listing the divisors of a huge exponent is slow
    guard_lattice_size(module, max_lattice)
    # the lattice keeps the product q of the primes
    primes = [q for q in divisors(module.exponent) if _is_prime(q)]
    parts = [_sylow_interval(module, p) for p in primes]
    subs = {(1 << module.order) - 1: (1, 1)}
    for part in parts:
        subs = {m & pm: (e * pe, c * pc) for m, (e, c) in subs.items()
                for pm, (pe, pc) in part.items()}
    # ascending positions list the elements in sorted order
    return SubmoduleLattice(module, tuple(
        Submodule(module, m, *subs[m]) for m in sorted(subs, key=mask_sort_key)), prod(primes))


def _sylow_interval(module: FiniteModule, p: int) -> dict[int, tuple]:
    # The members a of [p^a M, M], keyed by mask, with the exponents of their
    # p-parts and of M/a.  Each cyclic p-subgroup <x> is spanned once, as the
    # cover of index p of <px>, and recorded under each of its generators.
    pa = gcd(module.exponent, p ** module.exponent.bit_length())  # p^a, the p-part of exp(M)
    if sum(d % p == 0 for d in module.invariant_factors) == 1:
        # a cyclic p-part Z_{p^a} has one submodule p^j Z_{p^a} per j <= a,
        # so the interval is the chain of the p^j M, of p-exponents p^(a-j)
        # and quotient exponents p^j
        chain, pj = {}, 1
        while pa % pj == 0:
            chain[module.scaled_mask(pj)] = (pa // pj, pj)
            pj *= p
        return chain
    els = module.elements()
    span_of = {0: 1}  # position of each generator spanned so far -> its span
    cyclic: list[tuple[Element, int, int, int]] = []  # generator, its bit, span, order
    for pos in bit_positions(module.kernel_mask(pa)):
        chain = []  # x, px, p^2 x, ... up to the first one spanned
        while pos not in span_of:
            chain.append((els[pos], pos))
            pos = module.position(module.scale(p, els[pos]))
        c = span_of[pos]
        for x, pos in reversed(chain):
            below, c = c, _cover(module, c, x, p)
            # the generators of <x> are those outside its one maximal subgroup <px>
            span_of.update(dict.fromkeys(bit_positions(c & ~below), c))
            cyclic.append((x, 1 << pos, c, c.bit_count()))

    # Every subgroup of a finite abelian group is reached from 0 by steps of
    # prime index, and such a step a -> J is a + <y> for every y in J \ a,
    # the listed generator of <y> among them.  So stepping from a by the <g>
    # with |a + <g>| / |a| = |<g>| / |a n <g>| = p finds every cover of a in
    # the interval, and skipping each g inside a cover already found
    # (`done`) steps to each cover once.  exp(a + <g>) = max(exp a, |<g>|).
    start = module.scaled_mask(pa)
    subs = {start: 1}
    queue = [start]
    while queue:
        a = queue.pop()
        done = a
        for g, bit, c, size in cyclic:
            if done & bit or size != p * (a & c).bit_count():
                continue
            joined = _cover(module, a, g, p)
            done |= joined
            if joined not in subs:
                subs[joined] = max(subs[a], size)
                queue.append(joined)
    return {m: (e, _quotient_exponent(module, m)) for m, e in subs.items()}


class SubmoduleLattice:
    """The full submodule lattice with classification flags.

    Members are indexed by their masks: M, each ideal cZ_n, a meet, the
    second socle and the prime radical are reads of a closed-form mask.
    The annihilator and colon ideals of N are exp(N)Z_n and exp(M/N)Z_n,
    read off the member.  The flags are primality tests on numbers the
    members hold: second and prime on those two divisors, minimal and
    maximal on |N| and |M/N|; large and small compare the mask with M[q]
    and qM, for `prime_product` q.  Each `is_X(sub)` first checks that sub
    is a member; the proper nonzero members, seconds, primes, minimals and
    maximals are listed once by the bare tests and kept.  The module
    properties are facts about |M|, exp(M), q and n, apart from hollow and
    uniform, which read the small and large flags.
    """

    def __init__(self, module: FiniteModule, members: tuple[Submodule, ...],
                 prime_product: int):
        self.module = module
        self.all = members
        self.prime_product = prime_product  # q, the primes dividing exp(M) multiplied
        self._by_mask = {s.mask: i for i, s in enumerate(members)}
        self._member_tuples: dict[str, tuple[Submodule, ...]] = {}
        self._props = None

    def __len__(self):
        return len(self.all)

    def __iter__(self):
        return iter(self.all)

    @property
    def zero(self) -> Submodule:
        return self.all[self._by_mask[1]]  # the zero element sits at position 0

    @property
    def top(self) -> Submodule:
        return self.all[self._by_mask[(1 << self.module.order) - 1]]

    def proper_nonzero(self) -> tuple[Submodule, ...]:
        return self._members("proper_nonzero")

    def index_of(self, sub: Submodule) -> int:
        if not _same_module(sub.module, self.module):
            raise ValueError(f"{sub!r} is not in this lattice")
        try:
            return self._by_mask[sub.mask]
        except KeyError:
            raise ValueError(f"{sub!r} is not in this lattice") from None

    def join(self, a: Submodule, b: Submodule) -> Submodule:
        # |A + B| = |A||B| / |A n B|, and A + B is the one member of that
        # order containing A u B: any other would be a second upper bound
        # of the same order, so it would equal the least one.
        i, j = self.index_of(a), self.index_of(b)
        mi, mj = a.mask, b.mask
        union = mi | mj
        if union == mj:
            return self.all[j]
        if union == mi:
            return self.all[i]
        order = mi.bit_count() * mj.bit_count() // (mi & mj).bit_count()
        for s in self.all:
            if s.order == order and s.mask & union == union:
                return s
        raise AssertionError("lattice is missing a join")

    def meet(self, a: Submodule, b: Submodule) -> Submodule:
        self.index_of(a)  # rejects a submodule from another module
        self.index_of(b)
        return self.all[self._by_mask[a.mask & b.mask]]

    def ideal(self, c: int) -> Submodule:
        """The ideal cZ_n, which is cM for M = Z_n; only the lattice of Z_n
        over itself holds ideals, as any other would return cM."""
        if self.module != self.module.ring.as_module():
            raise ValueError("ideals live in the lattice of Z_n over itself, "
                             f"not of {self.module!r}")
        return self.all[self._by_mask[self.module.scaled_mask(c)]]

    # -- classification flags ------------------------------------------

    def colon_elements(self, sub: Submodule) -> frozenset:
        """The residues of (sub :_R M) = exp(M/sub)Z_n."""
        self.index_of(sub)  # rejects a submodule from another module
        return frozenset(range(0, self.module.ring.modulus, sub.quotient_exponent))

    def annihilator_elements(self, sub: Submodule) -> frozenset:
        """The residues of Ann_R(sub) = exp(sub)Z_n."""
        self.index_of(sub)
        return frozenset(range(0, self.module.ring.modulus, sub.exponent))

    def _flag(self, family: str, sub: Submodule) -> bool:
        self.index_of(sub)  # rejects a submodule from another module
        return _MEMBER_TESTS[family](sub)

    def is_second(self, sub: Submodule) -> bool:
        return self._flag("second", sub)

    def is_prime(self, sub: Submodule) -> bool:
        return self._flag("prime", sub)

    def is_minimal(self, sub: Submodule) -> bool:
        return self._flag("minimal", sub)

    def is_maximal(self, sub: Submodule) -> bool:
        return self._flag("maximal", sub)

    def is_large(self, sub: Submodule) -> bool:
        # every nonzero submodule contains one of prime order, which meets S
        # nontrivially only inside S, and those span M[q]: S is large iff it
        # contains M[q] (for a simple M that is M itself)
        self.index_of(sub)
        socle = self.module.kernel_mask(self.prime_product)
        return sub.mask & socle == socle

    def is_small(self, sub: Submodule) -> bool:
        # every proper submodule lies in one of prime index, so S + T = M for
        # a proper T iff S escapes one of those, and they meet in qM: S is
        # small iff it lies in qM (for a simple M that is 0)
        self.index_of(sub)
        return sub.mask & self.module.scaled_mask(self.prime_product) == sub.mask

    def _members(self, family: str) -> tuple[Submodule, ...]:
        got = self._member_tuples.get(family)
        if got is None:
            got = self._member_tuples[family] = tuple(filter(_MEMBER_TESTS[family], self.all))
        return got

    def seconds(self) -> tuple[Submodule, ...]:
        return self._members("second")

    def primes(self) -> tuple[Submodule, ...]:
        return self._members("prime")

    def minimals(self) -> tuple[Submodule, ...]:
        return self._members("minimal")

    def maximals(self) -> tuple[Submodule, ...]:
        return self._members("maximal")

    # -- module-level properties ---------------------------------------

    def properties(self) -> ModuleProperties:
        if self._props is None:
            self._props = self._compute_properties()
        return self._props

    def _compute_properties(self) -> ModuleProperties:
        module = self.module
        n, e = module.ring.modulus, module.exponent
        # rM = r^2 M and rM n (0 :_M r) = 0 for every r iff no p^2 divides e,
        # which is e = q
        squarefree = e == self.prime_product
        # every submodule is some cM, and some (0 :_M c), iff M is cyclic: a
        # rank-2 p-part has p + 1 subgroups of order p, but there is at most
        # one cM and one (0 :_M c) of each order
        cyclic = module.order == e
        # Ann_R(M) = eZ_n, and Ann_R((0 :_M d)) = gcd(d, e)Z_n is dZ_n for
        # every d | n iff e = n, so faithful and dac are one condition
        faithful = e == n
        hollow = all(self.is_small(s) for s in self.all if not s.is_full)
        uniform = all(self.is_large(s) for s in self.all if not s.is_zero)

        return ModuleProperties(
            coreduced=squarefree,
            reduced=squarefree,
            multiplication=cyclic,
            comultiplication=cyclic,
            dac=faithful,
            strong_comultiplication=cyclic and faithful,
            faithful=faithful,
            hollow=hollow,
            uniform=uniform,
        )


def second_socle(n: Submodule, lattice: SubmoduleLattice) -> Submodule:
    """Sum of all second submodules contained in N; zero if none.

    The seconds are the nonzero submodules of prime exponent, and those
    of exponent p inside N span N[p], so their sum is N n M[q].
    """
    lattice.index_of(n)  # rejects an N from another module
    return lattice.all[lattice._by_mask[
        n.mask & lattice.module.kernel_mask(lattice.prime_product)]]


def prime_radical(lattice: SubmoduleLattice) -> Submodule:
    """Intersection of all prime submodules.

    P is prime iff M/P has prime exponent p, and for each p dividing exp(M)
    those P meet in pM, so all of them meet in qM.
    """
    return lattice.all[lattice._by_mask[lattice.module.scaled_mask(lattice.prime_product)]]
