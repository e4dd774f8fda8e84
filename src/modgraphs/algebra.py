"""Rings Z_n, finite modules over them, and their submodule lattices.

A module here is a direct sum of cyclic groups Z_{d_1} x ... x Z_{d_k}
acted on by Z_n, where every d_i divides n.  Elements are residue tuples,
the action is coordinatewise multiplication.  Because the action factors
through repeated addition, every additive subgroup is a submodule, which
keeps enumeration exact and cheap at the orders we care about.

A submodule is its mask: an int with one bit per element position of
the module (see `FiniteModule.position`).  Equality, containment, meet
and order are mask arithmetic, and the element set is derived from the
mask only where a listing is printed.

Every quantifier over the ring runs over the divisors of n only.  Any
r in Z_n is u*g with g = gcd(r, n) and u a unit, and a unit maps every
submodule onto itself, so r and g scale each submodule to the same image
and kill the same elements: rN = gN and (0 :_N r) = (0 :_N g).  The
module caches gM and (0 :_M g) as masks, one pair per divisor, so the
second and prime flags, colon and annihilator ideals and the module
properties are mask tests over the d(n) divisors, and meet, join and the
order flags (minimal, maximal, large, small) are read off the masks and
the member orders.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm, prod
from itertools import product as _cartesian

Element = tuple[int, ...]

MAX_MODULE_ORDER = 4096
MAX_LATTICE_SIZE = 20000


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


_ATOM_RE = re.compile(r"^Z([0-9]+)$")


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

    def divisors(self) -> list[int]:
        """The divisors of n in increasing order; g = gcd(r, n) stands for
        the residue r, and n for the residue 0."""
        return divisors(self.modulus)

    def as_module(self) -> "FiniteModule":
        """This ring viewed as a module over itself."""
        if self._module is None:
            self._module = FiniteModule(self, (self.modulus,))
        return self._module

    def ideal(self, d: int) -> "Submodule":
        """The ideal generated by d, i.e. gcd(d, n)Z_n."""
        return span(self.as_module(), [(d % self.modulus,)])

    def lattice(self, *, max_order: int = MAX_MODULE_ORDER,
                max_lattice: int = MAX_LATTICE_SIZE) -> "SubmoduleLattice":
        """The ideal lattice, cached after the first call."""
        if self._lattice is None:
            self._lattice = enumerate_submodules(
                self.as_module(), max_order=max_order, max_lattice=max_lattice)
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

    __slots__ = ("ring", "invariant_factors", "_elements", "_scaled", "_kernels",
                 "_repeats")

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
        self._elements = None
        self._scaled = {}
        self._kernels = {}
        self._repeats = {}

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return lcm(*self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def zero(self) -> Element:
        return (0,) * len(self.invariant_factors)

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic order."""
        if self._elements is None:
            self._elements = tuple(_cartesian(*(range(d) for d in self.invariant_factors)))
        return self._elements

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

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

    def mask_of(self, elements) -> int:
        """Bitmask over element positions with one bit per element."""
        mask = 0
        for x in elements:
            mask |= 1 << self.position(x)
        return mask

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

    def unit_generators(self) -> tuple[Element, ...]:
        """The standard generating set: one unit vector per component."""
        k = len(self.invariant_factors)
        return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))

    def scaled_mask(self, r: int) -> int:
        """The mask of rM, spanned by r times each unit generator; cached
        per g = gcd(r, n), which has the same image."""
        g = gcd(r, self.ring.modulus)
        got = self._scaled.get(g)
        if got is None:
            got = self._scaled[g] = _closure(
                self, [self.scale(g, e) for e in self.unit_generators()])
        return got

    def kernel_mask(self, r: int) -> int:
        """The mask of (0 :_M r) = {m : rm = 0}, spanned by d/gcd(r, d) times
        the unit generator of each factor Z_d; cached per g = gcd(r, n)."""
        g = gcd(r, self.ring.modulus)
        got = self._kernels.get(g)
        if got is None:
            got = self._kernels[g] = _closure(
                self, [self.scale(d // gcd(g, d), e)
                       for d, e in zip(self.invariant_factors, self.unit_generators())])
        return got

    @property
    def descriptor(self) -> str:
        return "x".join(f"Z{d}" for d in self.invariant_factors)

    def __eq__(self, other):
        return (isinstance(other, FiniteModule) and other.ring == self.ring
                and other.invariant_factors == self.invariant_factors)

    def __hash__(self):
        return hash(("FiniteModule", self.ring.modulus, self.invariant_factors))

    def __repr__(self):
        return f"FiniteModule({self.descriptor} over Z{self.ring.modulus})"


def parse_descriptor(module_text: str, ring_text: str | None = None) -> tuple[Ring, FiniteModule]:
    """Parse 'Z12' or 'Z2xZ4' into a (ring, module) pair.

    The ring defaults to Z_n for n the least common multiple of the
    invariant factors; an explicit ring must be a common multiple.
    """
    factors = _parse_atoms(module_text.strip())
    if ring_text is None:
        modulus = lcm(*factors)
    else:
        ring_atoms = _parse_atoms(ring_text.strip())
        if len(ring_atoms) != 1:
            raise DescriptorError(f"ring descriptor must be a single Z<n>, got {ring_text!r}")
        modulus = ring_atoms[0]
    ring = Ring(modulus)
    return ring, FiniteModule(ring, factors)


class Submodule:
    """A submodule of `module`, identified by the module and its mask.

    Bit p of `mask` is set when the element at position p of
    `module.elements()` lies in the submodule.  Equality is equal masks
    in equal modules, and `<=`/`<` are mask containment.  The element
    set is derived from the mask on each read of `elements`.
    """

    __slots__ = ("module", "mask", "generators", "_labels")

    def __init__(self, module: FiniteModule, mask: int):
        self.module = module
        self.mask = mask
        self.generators = _canonical_generators(module, mask)
        self._labels = {}

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
        """Short name: 0, M, dM when the submodule equals d*M, else generators."""
        got = self._labels.get(symbol)
        if got is not None:
            return got
        if self.is_zero:
            text = "0"
        elif self.is_full:
            text = symbol
        else:
            text = ""
            module = self.module
            for d in divisors(module.exponent)[1:]:
                if module.scaled_mask(d) == self.mask:
                    text = f"{d}{symbol}"
                    break
            if not text:
                text = "<" + ",".join(_format_element(g) for g in self.generators) + ">"
        self._labels[symbol] = text
        return text

    def __eq__(self, other):
        return (isinstance(other, Submodule) and other.mask == self.mask
                and _same_module(other.module, self.module))

    def __hash__(self):
        return hash((self.module, self.mask))

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
        step = module.add(step, step)


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
    for p in bit_positions(mask):
        if not closed >> p & 1:
            gens.append(els[p])
            closed = _grow(module, closed, els[p])
    pruned = list(gens)
    for g in gens:
        if len(pruned) == 1:
            break
        trial = [h for h in pruned if h != g]
        if _closure(module, trial) == mask:
            pruned = trial
    return tuple(pruned)


def span(module: FiniteModule, gens) -> Submodule:
    """Smallest submodule containing the given elements."""
    gens = list(gens)
    for g in gens:
        if not module.contains(g):
            raise ValueError(f"element {g!r} is not in {module.descriptor}")
    return Submodule(module, _closure(module, gens))


def submodule_sum(n: Submodule, k: Submodule) -> Submodule:
    """N + K, the join in the submodule lattice."""
    _require_same_module(n, k)
    module = n.module
    closed = n.mask
    for g in k.generators:
        closed = _grow(module, closed, g)
    return Submodule(module, closed)


def submodule_intersection(n: Submodule, k: Submodule) -> Submodule:
    """N intersect K, the meet in the submodule lattice."""
    _require_same_module(n, k)
    return Submodule(n.module, n.mask & k.mask)


# Both ideals below are cZ_n, and a divisor g of n lies in cZ_n iff c | g,
# so c is the least divisor that passes the test; n (residue 0) always does.

def _colon_divisor(module: FiniteModule, mask: int) -> int:
    """The c with (N :_R M) = cZ_n, for N given by its mask: least gM <= N."""
    scaled = module.scaled_mask
    return next(g for g in module.ring.divisors() if scaled(g) & mask == scaled(g))


def _annihilator_divisor(module: FiniteModule, mask: int) -> int:
    """The c with Ann_R(N) = cZ_n, for N given by its mask: least N <= (0 :_M g)."""
    kernel = module.kernel_mask
    return next(g for g in module.ring.divisors() if mask & kernel(g) == mask)


def ideal_divisor(ideal: Submodule) -> int:
    """The divisor d with ideal = dZ_n; the zero ideal reports n."""
    return ideal.module.ring.modulus // ideal.order


def colon_ideal(n: Submodule, module: FiniteModule) -> Submodule:
    """(N :_R M) = {r : r*M <= N} as an ideal of the ring."""
    if n.module != module:
        raise ValueError("submodule does not belong to the given module")
    return module.ring.ideal(_colon_divisor(module, n.mask))


def annihilator(n: Submodule) -> Submodule:
    """Ann_R(N) = {r : r*N = 0} as an ideal of the ring."""
    return n.module.ring.ideal(_annihilator_divisor(n.module, n.mask))


@dataclass(frozen=True)
class SubmoduleFlags:
    is_prime: bool
    is_second: bool
    is_minimal: bool
    is_maximal: bool
    is_large: bool
    is_small: bool


@dataclass(frozen=True)
class ModuleProperties:
    coreduced: bool
    reduced: bool
    multiplication: bool
    comultiplication: bool
    dac: bool
    strong_comultiplication: bool
    faithful: bool
    hollow: bool
    uniform: bool


def module_lattice(module: FiniteModule, *,
                   max_order: int = MAX_MODULE_ORDER,
                   max_lattice: int = MAX_LATTICE_SIZE) -> "SubmoduleLattice":
    """The submodule lattice of M.  Z_n over itself gets its ring's cached
    ideal lattice, so the module side and the ring side share one
    enumeration."""
    if module == module.ring.as_module():
        return module.ring.lattice(max_order=max_order, max_lattice=max_lattice)
    return enumerate_submodules(module, max_order=max_order, max_lattice=max_lattice)


def enumerate_submodules(module: FiniteModule, *,
                         max_order: int = MAX_MODULE_ORDER,
                         max_lattice: int = MAX_LATTICE_SIZE) -> "SubmoduleLattice":
    """Every submodule of M: the cyclic ones, closed under adding a cyclic summand.

    Cyclic spans are collected once per cyclic submodule (all other
    generators of the same walk are skipped).  Every submodule is a sum
    of cyclic ones, so adding one cyclic summand at a time to each member
    found, until nothing new appears, reaches them all.  A summand that
    is comparable with the member cannot give anything new and is skipped
    without a grow, which leaves chain lattices free of grows.
    """
    if module.order > max_order:
        raise SizeGuardError(
            f"module order {module.order} exceeds the guard {max_order}")
    zero = module.zero
    add = module.add
    cyclic: list[tuple[Element, int, int]] = []  # generator, its bit, span mask
    seen = {zero}
    for x in module.elements():
        if x in seen:
            continue
        multiples = []
        cur = x
        while cur != zero:
            multiples.append(cur)
            cur = add(cur, x)
        m = len(multiples) + 1
        cyclic.append((x, 1 << module.position(x), module.mask_of([zero, *multiples])))
        for k in range(1, m):
            if gcd(k, m) == 1:
                seen.add(multiples[k - 1])

    subs = {1, *(c for _, _, c in cyclic)}
    if len(subs) > max_lattice:
        raise SizeGuardError(f"lattice size exceeds the guard {max_lattice}")
    queue = list(subs)
    while queue:
        a = queue.pop()
        for g, bit, c in cyclic:
            if a & bit or a & c == a:
                continue
            joined = _grow(module, a, g)
            if joined not in subs:
                subs.add(joined)
                if len(subs) > max_lattice:
                    raise SizeGuardError(
                        f"lattice size exceeds the guard {max_lattice}")
                queue.append(joined)

    # ascending positions list the elements in sorted order
    return SubmoduleLattice(module, tuple(
        Submodule(module, m) for m in sorted(subs, key=bit_positions)))


class SubmoduleLattice:
    """The full submodule lattice with classification flags.

    Members are indexed by their masks, so meet is a mask AND and a
    dictionary read, and join a search of one order bucket.  Second and
    prime flags, colon and annihilator ideals and the module properties
    test the member masks against the module's gM and (0 :_M g) for each
    divisor g of n (see the module docstring); the order flags are read
    off the masks.  Every flag family is computed lazily and cached.
    """

    def __init__(self, module: FiniteModule, members: tuple[Submodule, ...]):
        self.module = module
        self.all = members
        self._by_mask = {s.mask: i for i, s in enumerate(members)}
        self._by_order: dict[int, list[int]] = {}
        for i, s in enumerate(members):
            self._by_order.setdefault(s.order, []).append(i)
        self._flag_lists: dict[str, list[bool]] = {}
        self._member_tuples: dict[str, tuple[Submodule, ...]] = {}
        self._colon: dict[int, int] = {}
        self._ann: dict[int, int] = {}
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
        return self.all[self._by_order[self.module.order][0]]

    def proper_nonzero(self) -> tuple[Submodule, ...]:
        return tuple(s for s in self.all if not s.is_zero and not s.is_full)

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
        for k in self._by_order[order]:
            if self.all[k].mask & union == union:
                return self.all[k]
        raise AssertionError("lattice is missing a join")

    def meet(self, a: Submodule, b: Submodule) -> Submodule:
        i, j = self.index_of(a), self.index_of(b)
        return self.all[self._by_mask[self.all[i].mask & self.all[j].mask]]

    def ideal(self, c: int) -> Submodule:
        """The ideal cZ_n, the one member of order n / gcd(c, n); only the
        lattice of Z_n over itself holds ideals."""
        if self.module != self.module.ring.as_module():
            raise ValueError("ideals live in the lattice of Z_n over itself, "
                             f"not of {self.module!r}")
        n = self.module.order
        return self.all[self._by_order[n // gcd(c, n)][0]]

    # -- classification flags ------------------------------------------

    def colon_divisor(self, sub: Submodule) -> int:
        """The c with (sub :_R M) = cZ_n."""
        i = self.index_of(sub)
        got = self._colon.get(i)
        if got is None:
            got = self._colon[i] = _colon_divisor(self.module, sub.mask)
        return got

    def annihilator_divisor(self, sub: Submodule) -> int:
        """The c with Ann_R(sub) = cZ_n."""
        i = self.index_of(sub)
        got = self._ann.get(i)
        if got is None:
            got = self._ann[i] = _annihilator_divisor(self.module, sub.mask)
        return got

    def colon_elements(self, sub: Submodule) -> frozenset:
        """The residues of (sub :_R M)."""
        return frozenset(range(0, self.module.ring.modulus, self.colon_divisor(sub)))

    def annihilator_elements(self, sub: Submodule) -> frozenset:
        """The residues of Ann_R(sub)."""
        return frozenset(range(0, self.module.ring.modulus, self.annihilator_divisor(sub)))

    def _second_flags(self) -> list[bool]:
        # gN = N iff N meets (0 :_M g) in 0, and gN = 0 iff N lies in it
        kernels = [self.module.kernel_mask(g) for g in self.module.ring.divisors()]
        return [s.mask != 1 and all(s.mask & k in (1, s.mask) for k in kernels)
                for s in self.all]

    def _prime_flags(self) -> list[bool]:
        # {m : gm in P} contains P and has order |(0 :_M g)| * |P n gM|, so
        # it equals P iff those orders agree; gM <= P exempts g instead
        module = self.module
        full = (1 << module.order) - 1
        tests = [(module.scaled_mask(g), module.kernel_mask(g).bit_count())
                 for g in module.ring.divisors()]
        out = []
        for s in self.all:
            mask = s.mask
            size = mask.bit_count()
            out.append(mask != full and all(
                image & mask == image or kernel * (image & mask).bit_count() == size
                for image, kernel in tests))
        return out

    def _order_extremes(self, below: bool) -> list[bool]:
        # nonzero proper members with no other one strictly below (above);
        # the candidates most likely to be below (above) are tried first
        masks = [s.mask for s in self.all]
        candidates = sorted((i for i, s in enumerate(self.all)
                             if not s.is_zero and not s.is_full),
                            key=lambda i: masks[i].bit_count(), reverse=not below)
        out = [False] * len(self.all)
        for i in candidates:
            mi = masks[i]
            if below:
                out[i] = not any(masks[j] & mi == masks[j] != mi for j in candidates)
            else:
                out[i] = not any(masks[j] & mi == mi != masks[j] for j in candidates)
        return out

    def _minimal_flags(self) -> list[bool]:
        return self._order_extremes(below=True)

    def _maximal_flags(self) -> list[bool]:
        return self._order_extremes(below=False)

    def _large_flags(self) -> list[bool]:
        # every nonzero submodule contains a minimal one, and a minimal one
        # meets S nontrivially only inside S: S is large iff it contains
        # them all (when M is simple there are none and M alone is large)
        socle = 0
        for s, flag in zip(self.all, self._flags("minimal")):
            if flag:
                socle |= s.mask
        return [not s.is_zero and s.mask & socle == socle for s in self.all]

    def _small_flags(self) -> list[bool]:
        # every proper submodule lies in a maximal one, so S + T = M for a
        # proper T iff S escapes some maximal: S is small iff it lies in all
        # of them (when M is simple there are none and 0 alone is small)
        radical = (1 << self.module.order) - 1
        for s, flag in zip(self.all, self._flags("maximal")):
            if flag:
                radical &= s.mask
        return [not s.is_full and s.mask & radical == s.mask for s in self.all]

    def _flags(self, family: str) -> list[bool]:
        """One flag per member for `family` (second, prime, minimal, maximal,
        large or small), computed by `_<family>_flags` on first use."""
        got = self._flag_lists.get(family)
        if got is None:
            got = self._flag_lists[family] = getattr(self, f"_{family}_flags")()
        return got

    def _members(self, family: str) -> tuple[Submodule, ...]:
        """The members flagged in `family`, in lattice order."""
        got = self._member_tuples.get(family)
        if got is None:
            got = tuple(s for s, flag in zip(self.all, self._flags(family)) if flag)
            self._member_tuples[family] = got
        return got

    def is_second(self, sub: Submodule) -> bool:
        return self._flags("second")[self.index_of(sub)]

    def is_prime(self, sub: Submodule) -> bool:
        return self._flags("prime")[self.index_of(sub)]

    def is_minimal(self, sub: Submodule) -> bool:
        return self._flags("minimal")[self.index_of(sub)]

    def is_maximal(self, sub: Submodule) -> bool:
        return self._flags("maximal")[self.index_of(sub)]

    def is_large(self, sub: Submodule) -> bool:
        return self._flags("large")[self.index_of(sub)]

    def is_small(self, sub: Submodule) -> bool:
        return self._flags("small")[self.index_of(sub)]

    def flags(self, sub: Submodule) -> SubmoduleFlags:
        i = self.index_of(sub)
        return SubmoduleFlags(
            is_prime=self._flags("prime")[i],
            is_second=self._flags("second")[i],
            is_minimal=self._flags("minimal")[i],
            is_maximal=self._flags("maximal")[i],
            is_large=self._flags("large")[i],
            is_small=self._flags("small")[i],
        )

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
        n = module.ring.modulus
        divs = module.ring.divisors()
        scaled, kernel = module.scaled_mask, module.kernel_mask

        coreduced = all(scaled(g) == scaled(g * g) for g in divs)
        reduced = all(scaled(g) & kernel(g) == 1 for g in divs)
        # (N :_R M) = cZ_n gives (N :_R M)M = cM, and Ann_R(N) = aZ_n gives
        # (0 :_M Ann_R(N)) = (0 :_M a)
        multiplication = all(scaled(self.colon_divisor(s)) == s.mask for s in self.all)
        comultiplication = all(kernel(self.annihilator_divisor(s)) == s.mask
                               for s in self.all)
        # the ideals of Z_n are the dZ_n, and (0 :_M dZ_n) = (0 :_M d)
        dac = all(_annihilator_divisor(module, kernel(d)) == d for d in divs)
        faithful = self.annihilator_divisor(self.top) == n
        hollow = all(self.is_small(s) for s in self.all if not s.is_full)
        uniform = all(self.is_large(s) for s in self.all if not s.is_zero)

        return ModuleProperties(
            coreduced=coreduced,
            reduced=reduced,
            multiplication=multiplication,
            comultiplication=comultiplication,
            dac=dac,
            strong_comultiplication=comultiplication and dac,
            faithful=faithful,
            hollow=hollow,
            uniform=uniform,
        )


def second_socle(n: Submodule, lattice: SubmoduleLattice) -> Submodule:
    """Sum of all second submodules contained in N; zero if none."""
    out = lattice.zero
    for s in lattice.seconds():
        if s <= n:
            out = lattice.join(out, s)
    return out


def prime_radical(lattice: SubmoduleLattice) -> Submodule:
    """Intersection of all prime submodules; the whole module if none."""
    out = lattice.top
    for p in lattice.primes():
        out = lattice.meet(out, p)
    return out

