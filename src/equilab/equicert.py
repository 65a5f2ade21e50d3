"""Exact-rational certificate and decision engine over set systems.

A SetSystem is a ground set together with a distinguished family of subsets:
(edges, maximal stars) of a graph, or (vertices, maximal stable sets).  The
engine decides whether a strictly positive weighting exists under which the
subsets of total weight exactly 1 are precisely the family members, produces
forced-value certificates (rational combinations of family characteristic
vectors), and checks the strong variant over the nonnegative unit polytope.

Everything here is exact: weights, certificates, and LP optimizers are
fractions, and every certificate re-verifies by rational identities before
it is returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .common import (
    Budget,
    BudgetExhausted,
    DEFAULT_EXHAUSTIVE_GROUND_LIMIT,
    DEFAULT_STRONG_GROUND_LIMIT,
    GraphError,
    Verdict,
    no,
    yes,
)
from .exactla import nullspace, solve_exact
from .graphs import Graph, enumerate_maximal_stable_sets
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_optimize


@dataclass(frozen=True)
class SetSystem:
    ground_size: int
    element_names: tuple[str, ...]
    family: tuple[tuple[int, ...], ...]
    source: str = ""

    def member_mask(self, j: int) -> int:
        mask = 0
        for i in self.family[j]:
            mask |= 1 << i
        return mask

    def family_masks(self) -> tuple[int, ...]:
        return tuple(self.member_mask(j) for j in range(len(self.family)))


def check_set_system(s: SetSystem) -> None:
    if len(s.element_names) != s.ground_size:
        raise AssertionError("element name count mismatch")
    masks = s.family_masks()
    if len(set(masks)) != len(masks):
        raise AssertionError("family members not distinct")
    for j, mask in enumerate(masks):
        if mask == 0:
            raise AssertionError("empty family member")
        for k, other in enumerate(masks):
            if j != k and mask & other == mask:
                raise AssertionError("family member not inclusion-maximal in family")


@dataclass(frozen=True)
class WeightFunction:
    weights: tuple[Fraction, ...]


@dataclass(frozen=True)
class ForcedValueCertificate:
    """Coefficients over the family whose characteristic-vector combination
    equals the target's characteristic vector; forces total weight = value."""

    target: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    value: Fraction


@dataclass(frozen=True)
class NotForced:
    """A kernel direction along which the target's total weight varies."""

    target: tuple[int, ...]
    kernel_direction: tuple[Fraction, ...]


@dataclass(frozen=True)
class AffineSolutionSpace:
    particular: tuple[Fraction, ...]
    kernel_basis: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class UnitSystemInfeasible:
    """Equation combination with zero left side and nonzero right side."""

    combination: tuple[Fraction, ...]


@dataclass(frozen=True)
class StrictPositivityFailure:
    """The unit system is feasible but admits no strictly positive solution;
    carries the exact maximum over solutions of the minimum weight."""

    max_min_weight: Fraction


@dataclass(frozen=True)
class EmptyPolytope:
    note: str = "no nonnegative solution of the unit equations"


@dataclass(frozen=True)
class StrongWitness:
    """Non-family subset whose total is the same value gamma <= 1 at every
    point of the nonnegative unit polytope."""

    target: tuple[int, ...]
    gamma: Fraction


@dataclass(frozen=True)
class OffendingSubset:
    """verify_weighting counterexample: a subset whose total contradicts the
    family characterization."""

    elements: tuple[int, ...]
    value: Fraction
    in_family: bool


# ---------------------------------------------------------------------------
# system construction

def star_system(g: Graph) -> SetSystem:
    """Ground set = edges; family = maximal stars (deduplicated)."""
    if any(g.degree(v) == 0 for v in range(g.n)):
        raise GraphError("isolated vertex: star systems are undefined")
    if g.n == 0:
        raise GraphError("empty graph")
    from .graphs import edge_index

    eidx = edge_index(g)
    stars = []
    for v in range(g.n):
        star = frozenset(eidx[(min(v, w), max(v, w))] for w in g.adjacency[v])
        stars.append(star)
    maximal = []
    for s in stars:
        if not any(s < t for t in stars):
            maximal.append(s)
    family = sorted(set(tuple(sorted(s)) for s in maximal))
    names = tuple(g.edge_name(i) for i in range(g.m))
    sys = SetSystem(ground_size=g.m, element_names=names, family=tuple(family),
                    source="stars")
    check_set_system(sys)
    return sys


def stable_system(g: Graph, budget: Budget | int | None = None) -> SetSystem:
    """Ground set = vertices; family = maximal stable sets."""
    if g.n == 0:
        raise GraphError("empty graph")
    fam = enumerate_maximal_stable_sets(g, budget)
    sys = SetSystem(ground_size=g.n, element_names=g.labels,
                    family=tuple(fam), source="stable-sets")
    check_set_system(sys)
    return sys


# ---------------------------------------------------------------------------
# affine solution space of the unit equations

def solve_unit_system(s: SetSystem):
    """Exact solution space of 'every family member sums to 1', or an
    infeasibility certificate."""
    rows = [[Fraction(int(i in set(f))) for i in range(s.ground_size)] for f in s.family]
    res = solve_exact(rows, [Fraction(1)] * len(rows))
    if res[0] == "infeasible":
        combo = tuple(res[1])
        cert = UnitSystemInfeasible(combination=combo)
        check_infeasibility(s, cert)
        return cert
    _, particular, kernel = res
    space = AffineSolutionSpace(
        particular=tuple(particular),
        kernel_basis=tuple(tuple(v) for v in kernel),
    )
    check_affine_space(s, space)
    return space


def check_affine_space(s: SetSystem, space: AffineSolutionSpace) -> None:
    for f in s.family:
        if sum((space.particular[i] for i in f), Fraction(0)) != 1:
            raise AssertionError("particular solution violates a unit equation")
        for k in space.kernel_basis:
            if sum((k[i] for i in f), Fraction(0)) != 0:
                raise AssertionError("kernel vector does not annihilate a member")


def check_infeasibility(s: SetSystem, cert: UnitSystemInfeasible) -> None:
    y = cert.combination
    if len(y) != len(s.family):
        raise AssertionError("combination length mismatch")
    total = [Fraction(0)] * s.ground_size
    for cj, f in zip(y, s.family):
        for i in f:
            total[i] += cj
    if any(total):
        raise AssertionError("combination does not cancel the left sides")
    if sum(y, Fraction(0)) == 0:
        raise AssertionError("combination cancels the right side too")


# ---------------------------------------------------------------------------
# forced values

def forced_value(s: SetSystem, target, space: AffineSolutionSpace | None = None):
    """Is the target's total weight constant over all unit-equation solutions?

    Returns a verified ForcedValueCertificate, or NotForced with a separating
    kernel direction.
    """
    target = tuple(sorted(set(target)))
    if not target:
        raise GraphError("target must be nonempty")
    if space is None:
        space = solve_unit_system(s)
    if isinstance(space, UnitSystemInfeasible):
        raise GraphError("unit system infeasible; forced values undefined")
    for k in space.kernel_basis:
        if sum((k[i] for i in target), Fraction(0)) != 0:
            return NotForced(target=target, kernel_direction=k)
    value = sum((space.particular[i] for i in target), Fraction(0))
    lam = _reconstruct_coefficients(s, target)
    cert = ForcedValueCertificate(target=target, coefficients=lam, value=value)
    check_certificate(s, cert)
    return cert


def _reconstruct_coefficients(s: SetSystem, target) -> tuple[Fraction, ...]:
    """Solve sum_j lam_j chi(F_j) = chi(target) by exact elimination."""
    tset = set(target)
    rows = [
        [Fraction(int(i in set(f))) for f in s.family]
        for i in range(s.ground_size)
    ]
    rhs = [Fraction(int(i in tset)) for i in range(s.ground_size)]
    res = solve_exact(rows, rhs)
    if res[0] != "solution":
        raise AssertionError("forced target has no coefficient representation")
    return tuple(res[1])


def check_certificate(s: SetSystem, cert: ForcedValueCertificate) -> None:
    total = [Fraction(0)] * s.ground_size
    for lam, f in zip(cert.coefficients, s.family):
        for i in f:
            total[i] += lam
    tset = set(cert.target)
    for i in range(s.ground_size):
        if total[i] != (1 if i in tset else 0):
            raise AssertionError("coefficients do not reproduce the target")
    if sum(cert.coefficients, Fraction(0)) != cert.value:
        raise AssertionError("certificate value mismatch")


# ---------------------------------------------------------------------------
# exhaustive subset-sum verification (Gray-code incremental)

def _common_denominator(values) -> int:
    den = 1
    for q in values:
        den = den * q.denominator // math.gcd(den, q.denominator)
    return den


def verify_weighting(s: SetSystem, phi: WeightFunction,
                     exhaustive_limit: int = DEFAULT_EXHAUSTIVE_GROUND_LIMIT) -> Verdict:
    """Exhaustively check: a subset has total weight 1 iff it is a family
    member.  Enumerates all nonempty subsets with incremental sums."""
    m = s.ground_size
    if m > exhaustive_limit:
        raise BudgetExhausted(f"ground size {m} exceeds exhaustive limit", exhaustive_limit)
    if len(phi.weights) != m:
        raise GraphError("weight vector length mismatch")
    den = _common_denominator(phi.weights)
    w = [int(q * den) for q in phi.weights]
    fam = set()
    for j, f in enumerate(s.family):
        mask = s.member_mask(j)
        fam.add(mask)
        total = sum(w[i] for i in f)
        if total != den:
            return no(OffendingSubset(elements=s.family[j],
                                      value=Fraction(total, den), in_family=True))
    gray = 0
    cur = 0
    for i in range(1, 1 << m):
        bit = i & -i
        gray ^= bit
        if gray & bit:
            cur += w[bit.bit_length() - 1]
        else:
            cur -= w[bit.bit_length() - 1]
        if cur == den and gray not in fam:
            elems = tuple(j for j in range(m) if gray >> j & 1)
            return no(OffendingSubset(elements=elems, value=Fraction(1), in_family=False))
    return yes(phi)


# ---------------------------------------------------------------------------
# forced-subset scans

def _scale_vectors(kernel, particular):
    den_p = _common_denominator(particular)
    p_int = [int(q * den_p) for q in particular]
    scaled_kernel = []
    for k in kernel:
        den_k = _common_denominator(k)
        scaled_kernel.append([int(q * den_k) for q in k])
    return den_p, p_int, scaled_kernel


def _scan_forced_subsets(m, family_masks, kernel, particular, accept):
    """Smallest (by size, then lexicographic member order) nonempty non-family
    subset whose total is constant across the affine space spanned by
    `kernel` around `particular` and whose constant value satisfies `accept`.

    Returns (elements, value) or None.  Cost: O(2^m * dim kernel).
    """
    den_p, p_int, scaled_kernel = _scale_vectors(kernel, particular)
    d = len(scaled_kernel)
    cols = [tuple(scaled_kernel[t][j] for t in range(d)) for j in range(m)]
    fam = set(family_masks)
    best = None  # (size, elements, value)
    cur = [0] * d
    pcur = 0
    gray = 0
    for i in range(1, 1 << m):
        bit = i & -i
        j = bit.bit_length() - 1
        gray ^= bit
        col = cols[j]
        if gray & bit:
            for t in range(d):
                cur[t] += col[t]
            pcur += p_int[j]
        else:
            for t in range(d):
                cur[t] -= col[t]
            pcur -= p_int[j]
        if any(cur) or gray in fam:
            continue
        value = Fraction(pcur, den_p)
        if not accept(value):
            continue
        size = gray.bit_count()
        if best is not None and size > best[0]:
            continue
        elems = tuple(t for t in range(m) if gray >> t & 1)
        if best is None or (size, elems) < (best[0], best[1]):
            best = (size, elems, value)
    if best is None:
        return None
    return best[1], best[2]


def _scan_forced_one_mitm(m, family_masks, kernel, particular):
    """Smallest (size, then lexicographic) non-family subset forced to total
    exactly 1, by meeting the two ground-set halves in the middle.

    Equivalent to _scan_forced_subsets with accept = (value == 1), but costs
    O(2^(m/2)) table entries instead of a 2^m sweep.
    """
    den_p, p_int, scaled_kernel = _scale_vectors(kernel, particular)
    d = len(scaled_kernel)
    m1 = m // 2
    hi = range(m1, m)

    # bucket every high-half subset by (kernel partial dots, partial total)
    buckets: dict[tuple, list[tuple[int, int]]] = {}
    for mask in range(1 << (m - m1)):
        key_vec = tuple(
            sum(scaled_kernel[t][m1 + j] for j in range(m - m1) if mask >> j & 1)
            for t in range(d)
        )
        pval = sum(p_int[m1 + j] for j in range(m - m1) if mask >> j & 1)
        size = mask.bit_count()
        buckets.setdefault(key_vec + (pval,), []).append((size, mask << m1))
    for entries in buckets.values():
        entries.sort()

    fam = set(family_masks)
    best = None  # (size, elems, mask, value)
    for lo_mask in range(1 << m1):
        key_vec = tuple(
            -sum(scaled_kernel[t][j] for j in range(m1) if lo_mask >> j & 1)
            for t in range(d)
        )
        pval = den_p - sum(p_int[j] for j in range(m1) if lo_mask >> j & 1)
        entries = buckets.get(key_vec + (pval,))
        if entries is None:
            continue
        lo_size = lo_mask.bit_count()
        for hi_size, hi_mask in entries:
            size = lo_size + hi_size
            if best is not None and size > best[0]:
                break  # entries sorted by size
            full = lo_mask | hi_mask
            if full == 0 or full in fam:
                continue
            elems = tuple(t for t in range(m) if full >> t & 1)
            if best is None or (size, elems) < (best[0], best[1]):
                best = (size, elems, full, Fraction(1))
    if best is None:
        return None
    return best[1], best[3]


def _scan_forced_one(m, family_masks, kernel, particular):
    if m <= 20:
        return _scan_forced_subsets(m, family_masks, kernel, particular,
                                    lambda v: v == 1)
    return _scan_forced_one_mitm(m, family_masks, kernel, particular)


# ---------------------------------------------------------------------------
# the exact decision procedure

def _strictly_positive_point(s: SetSystem):
    """Maximize the minimum weight over the unit-equation solutions.

    Returns (optimum t, solution phi) with phi_i >= t for all i.
    """
    m = s.ground_size
    # substitute phi_i = psi_i + t with psi >= 0 and t free (variable index m)
    eqs = []
    for f in s.family:
        coeffs = [Fraction(int(i in set(f))) for i in range(m)] + [Fraction(len(f))]
        eqs.append((coeffs, Fraction(1)))
    obj = [Fraction(0)] * m + [Fraction(1)]
    res = lp_optimize(m + 1, eqs, obj, direction="max", free={m})
    if res.status == UNBOUNDED:  # empty family: anything goes
        return Fraction(1), (Fraction(1),) * m
    assert res.status == OPTIMAL  # t <= 1/|F| for any member F, never unbounded
    t = res.solution[m]
    phi = tuple(res.solution[i] + t for i in range(m))
    return res.value, phi


def decide_equi_exact(s: SetSystem, seed: int = 0,
                      exhaustive_limit: int = DEFAULT_EXHAUSTIVE_GROUND_LIMIT,
                      max_retries: int = 64) -> Verdict:
    """Decide whether some strictly positive weighting realizes exactly the
    family as the unit-total subsets.

    yes: carries a WeightFunction that passed exhaustive verification.
    no: carries UnitSystemInfeasible, StrictPositivityFailure, or a
    ForcedValueCertificate with value 1 for a non-family subset.

    A weighting exists iff the strictly positive part of the affine solution
    set is nonempty and no non-family subset is forced to total exactly 1:
    the bad subsets that are not forced each fail only on a hyperplane, and
    finitely many hyperplanes cannot cover a relatively open convex set.
    """
    m = s.ground_size
    space = solve_unit_system(s)
    if isinstance(space, UnitSystemInfeasible):
        return no(space)
    opt, phi0 = _strictly_positive_point(s)
    if opt <= 0:
        return no(StrictPositivityFailure(max_min_weight=opt))

    found = _scan_forced_one(m, s.family_masks(), space.kernel_basis,
                             space.particular)
    if found is not None:
        cert = forced_value(s, found[0], space)
        assert isinstance(cert, ForcedValueCertificate) and cert.value == 1
        return no(cert)

    # only the yes path needs the exhaustive subset sweep
    if m > exhaustive_limit:
        raise BudgetExhausted(f"ground size {m} exceeds exhaustive limit", exhaustive_limit)

    rng = random.Random(seed)
    d = len(space.kernel_basis)
    bound = 1000
    for attempt in range(max_retries * 4):
        if attempt > 0 and attempt % max_retries == 0:
            bound *= 10
        if d == 0 or attempt == 0:
            phi = phi0
        else:
            delta = [Fraction(0)] * m
            for k in space.kernel_basis:
                r = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                for i in range(m):
                    delta[i] += r * k[i]
            peak = max((abs(x) for x in delta), default=Fraction(0))
            if peak == 0:
                phi = phi0
            else:
                scale = opt / (2 * peak)
                phi = tuple(a + scale * b for a, b in zip(phi0, delta))
        cand = WeightFunction(tuple(phi))
        verdict = verify_weighting(s, cand, exhaustive_limit)
        if verdict.is_yes:
            return yes(cand)
        if d == 0:
            # unique solution failed although nothing is forced to 1: impossible
            raise AssertionError("unique solution contradicts the forced-subset scan")
    raise AssertionError("hyperplane-avoiding sampling failed beyond retry cap")


# ---------------------------------------------------------------------------
# strong variant

def strong_check(s: SetSystem,
                 ground_limit: int = DEFAULT_STRONG_GROUND_LIMIT) -> Verdict:
    """Decide the strong variant over the nonnegative unit polytope
    {phi >= 0, every family member totals 1}.

    no iff the polytope is empty, or some nonempty non-family subset T has
    the same total gamma <= 1 at every polytope point; witness (T, gamma) is
    re-verified by exact LP minimization and maximization.
    """
    m = s.ground_size
    if m > ground_limit:
        raise BudgetExhausted(f"ground size {m} exceeds strong-check limit", ground_limit)
    eqs = [
        ([Fraction(int(i in set(f))) for i in range(m)], Fraction(1))
        for f in s.family
    ]
    probe = lp_optimize(m, eqs, [Fraction(0)] * m, direction="min")
    if probe.status == INFEASIBLE:
        return no(EmptyPolytope())

    support = []
    points = []
    for i in range(m):
        obj = [Fraction(int(j == i)) for j in range(m)]
        res = lp_optimize(m, eqs, obj, direction="max")
        if res.status == UNBOUNDED:
            support.append(i)
            continue
        points.append(res.solution)
        if res.value > 0:
            support.append(i)
    if not points:
        points.append(probe.solution)
    # relative-interior point: average of the per-coordinate maximizers
    k = len(points)
    center = [sum((p[i] for p in points), Fraction(0)) / k for i in range(m)]

    rows = [list(coeffs) for coeffs, _ in eqs]
    supp = set(support)
    for i in range(m):
        if i not in supp:
            row = [Fraction(0)] * m
            row[i] = Fraction(1)
            rows.append(row)
    kernel = nullspace(rows, n_cols=m)

    found = _scan_forced_subsets(
        m, s.family_masks(), kernel, center, lambda v: v <= 1
    )
    if found is None:
        return yes({"support": tuple(support), "subsets_checked": (1 << m) - 1})
    target, gamma = found
    obj = [Fraction(int(i in set(target))) for i in range(m)]
    lo = lp_optimize(m, eqs, obj, direction="min")
    hi = lp_optimize(m, eqs, obj, direction="max")
    if not (lo.status == hi.status == OPTIMAL and lo.value == hi.value == gamma):
        raise AssertionError("strong witness failed LP re-verification")
    return no(StrongWitness(target=target, gamma=gamma))


def check_strong_witness(s: SetSystem, w: StrongWitness) -> None:
    m = s.ground_size
    eqs = [
        ([Fraction(int(i in set(f))) for i in range(m)], Fraction(1))
        for f in s.family
    ]
    obj = [Fraction(int(i in set(w.target))) for i in range(m)]
    lo = lp_optimize(m, eqs, obj, direction="min")
    hi = lp_optimize(m, eqs, obj, direction="max")
    if not (lo.status == hi.status == OPTIMAL and lo.value == hi.value == w.gamma):
        raise AssertionError("strong witness does not re-verify")
    if w.gamma > 1:
        raise AssertionError("strong witness value exceeds 1")
    if set(w.target) in (set(f) for f in s.family):
        raise AssertionError("strong witness target is a family member")


# ---------------------------------------------------------------------------
# serialization

def rational_to_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def rational_from_json(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def certificate_to_json(s: SetSystem, cert: ForcedValueCertificate) -> dict:
    return {
        "type": "forced_value",
        "target": [s.element_names[i] for i in cert.target],
        "coefficients": [
            {"member": j, "num": lam.numerator, "den": lam.denominator}
            for j, lam in enumerate(cert.coefficients)
        ],
        "value": rational_to_json(cert.value),
    }


def certificate_from_json(s: SetSystem, obj) -> ForcedValueCertificate:
    if obj.get("type") != "forced_value":
        raise GraphError("not a forced-value certificate")
    # Star-system elements are edges 'u-v'; labels may contain '-', so the
    # reversed name 'v-u' is registered for every split point.  A name that
    # resolves to two elements is rejected rather than guessed.
    name_pos: dict[str, set[int]] = {}
    for i, nm in enumerate(s.element_names):
        aliases = {nm}
        if s.source == "stars":
            aliases.update(f"{nm[j + 1:]}-{nm[:j]}" for j, ch in enumerate(nm) if ch == "-")
        for alias in aliases:
            name_pos.setdefault(alias, set()).add(i)
    target = []
    for nm in obj["target"]:
        pos = name_pos.get(nm, set())
        if len(pos) != 1:
            raise GraphError(f"unknown element {nm!r}" if not pos else
                             f"ambiguous element {nm!r}: names elements {sorted(pos)}")
        target.extend(pos)
    target = tuple(sorted(target))
    coeffs = [Fraction(0)] * len(s.family)
    for entry in obj["coefficients"]:
        coeffs[entry["member"]] = Fraction(entry["num"], entry["den"])
    cert = ForcedValueCertificate(
        target=target, coefficients=tuple(coeffs),
        value=rational_from_json(obj["value"]),
    )
    check_certificate(s, cert)
    return cert
