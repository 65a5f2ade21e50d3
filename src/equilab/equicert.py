"""Exact-rational certificate and decision engine over set systems.

A SetSystem is a ground set together with a distinguished family of subsets:
(edges, maximal stars) of a graph, or (vertices, maximal stable sets).  The
engine decides whether a strictly positive weighting exists under which the
subsets of total weight exactly 1 are precisely the family members, produces
forced-value certificates (rational combinations of family characteristic
vectors), and checks the strong variant over the nonnegative unit polytope.
The unit equations of a system are analyzed once (analyze_unit_system: one
elimination and one max-min LP), and every decider reads its answer from
that analysis: forced-value coefficients come from the elimination's row
combinations, and the strong check needs more LPs only when the max-min
weight is exactly 0.  Every question over all 2^m subsets (verifying a
weighting, finding a subset forced to total 1 or at most 1) goes through one
meet-in-the-middle subset-sum join, with ground size at most
JOIN_GROUND_LIMIT.

Everything here is exact: weights, certificates, and LP optimizers are
fractions, and every certificate re-verifies by rational identities before
it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .common import (
    Budget,
    BudgetExhausted,
    DEFAULT_STRONG_GROUND_LIMIT,
    GraphError,
    JOIN_GROUND_LIMIT,
    Verdict,
    no,
    yes,
)
from .exactla import eliminate, solve_exact
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

    def same_members(self, other: SetSystem) -> bool:
        """Equal but for `source`: every engine verdict on self holds for other."""
        return self.element_names == other.element_names and self.family == other.family


def check_set_system(s: SetSystem) -> None:
    if len(s.element_names) != s.ground_size:
        raise AssertionError("element name count mismatch")
    masks = s.family_masks()
    if len(set(masks)) != len(masks):
        raise AssertionError("family members not distinct")
    containing: dict[int, list[int]] = {}
    for j, member in enumerate(s.family):
        for i in member:
            containing.setdefault(i, []).append(j)
    for j, mask in enumerate(masks):
        if mask == 0:
            raise AssertionError("empty family member")
        # every member that contains this one contains its first element
        for k in containing[s.family[j][0]]:
            if j != k and mask & masks[k] == mask:
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
    """Solutions of the unit equations and their elimination: reduced row i
    has its pivot in column pivots[i] and is the combinations[i] of the
    members; each dependencies row combines the members to 0, with a 1 at a
    member in the span of earlier ones and a 0 at the others of those."""

    particular: tuple[Fraction, ...]
    kernel_basis: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[int, ...]
    combinations: tuple[tuple[Fraction, ...], ...]
    dependencies: tuple[tuple[Fraction, ...], ...]


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
class UnitAnalysis:
    """The unit equations' solution space (or infeasibility certificate) and,
    if feasible, the maximum over solutions of the minimum weight and a
    solution attaining it."""

    space: AffineSolutionSpace | UnitSystemInfeasible
    max_min_weight: Fraction | None = None
    max_min_point: tuple[Fraction, ...] | None = None


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
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    # only a leaf's star can lie inside another: its neighbour's, unless in a K2
    family = sorted(set(tuple(s) for v, s in enumerate(incident)
                        if len(s) > 1 or g.degree(g.adjacency[v][0]) == 1))
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

def _indicator(members, size: int) -> list[Fraction]:
    """Characteristic vector of `members`: a unit-equation row or an objective."""
    vec = [Fraction(0)] * size
    for i in members:
        vec[i] = Fraction(1)
    return vec


def _unit_equations(s: SetSystem) -> list[tuple[list[Fraction], Fraction]]:
    """'Every family member sums to 1' as (row, right side) pairs."""
    return [(_indicator(f, s.ground_size), Fraction(1)) for f in s.family]


def solve_unit_system(s: SetSystem):
    """Exact solution space of 'every family member sums to 1', with its
    elimination record, or an infeasibility certificate."""
    rows = [_indicator(f, s.ground_size) for f in s.family]
    res = eliminate(rows, [Fraction(1)] * len(rows), s.ground_size)
    if res[0] == "infeasible":
        cert = UnitSystemInfeasible(combination=tuple(res[1]))
        check_infeasibility(s, cert)
        return cert
    _, particular, kernel, pivots, tab = res
    combos, r = [tuple(row[s.ground_size + 1:]) for row in tab], len(pivots)
    # the zero rows' combinations span the left kernel; eliminated with the
    # members in reverse order, each reduced row's last nonzero member is in
    # the span of earlier members, and every other row is 0 there
    left = eliminate([c[::-1] for c in combos[r:]], [0] * (len(combos) - r))
    space = AffineSolutionSpace(
        particular=tuple(particular),
        kernel_basis=tuple(tuple(v) for v in kernel),
        pivots=tuple(pivots),
        combinations=tuple(combos[:r]),
        dependencies=tuple(tuple(reversed(row[:len(combos)])) for row in left[4][:len(left[3])]),
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
    kernel direction.  chi(target) is the sum of the reduced rows whose pivot
    lies in it; the dependencies then zero every member in the span of
    earlier ones, as an elimination of the members would.
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
    tset = set(target)
    lam = [Fraction(0)] * len(s.family)
    for c, combo in zip(space.pivots, space.combinations):
        if c in tset:
            lam = [a + b for a, b in zip(lam, combo)]
    for dep in space.dependencies:
        f = lam[max(j for j, y in enumerate(dep) if y)]
        if f:
            lam = [a - f * y for a, y in zip(lam, dep)]
    cert = ForcedValueCertificate(target=target, coefficients=tuple(lam), value=value)
    check_certificate(s, cert)
    return cert


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
# the subset-sum join (Horowitz-Sahni meet in the middle)

def _common_denominator(values) -> int:
    den = 1
    for q in values:
        den = den * q.denominator // math.gcd(den, q.denominator)
    return den


def _half_sums(keys) -> list[int]:
    """Subset sums of `keys`, indexed by subset mask (built by doubling)."""
    sums = [0]
    for k in keys:
        sums += [x + k for x in sums]
    return sums


def _elements(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _smallest_subset(keys, target, skip, vals=None, cap=0):
    """Mask of the smallest (by size, then lexicographic element order)
    nonempty subset S outside `skip` whose keys sum to `target` and, when
    `vals` is given, whose vals sum to at most `cap`; None if there is none.

    The ground set is split into a low and a high half.  The high half's
    subset sums are bucketed by key, each bucket sorted by size, and every
    low-half sum looks up its complement.  Cost: O(2^(m/2)) table entries
    plus one visit per matching pair within the best size so far.
    """
    m = len(keys)
    if m > JOIN_GROUND_LIMIT:
        raise BudgetExhausted(f"ground size {m} exceeds the subset-join ceiling",
                              JOIN_GROUND_LIMIT)
    h = m // 2
    buckets: dict[int, list[int]] = {}
    for hi, key in enumerate(_half_sums(keys[h:])):
        buckets.setdefault(key, []).append(hi)
    for bucket in buckets.values():
        if len(bucket) > 1:
            bucket.sort(key=int.bit_count)  # stable: ascending masks per size
    if vals is not None:
        lo_vals, hi_vals = _half_sums(vals[:h]), _half_sums(vals[h:])
    best, best_size = None, m + 1
    for lo, key in enumerate(_half_sums(keys[:h])):
        bucket = buckets.get(target - key)
        if bucket is None:
            continue
        lo_size = lo.bit_count()
        for hi in bucket:
            size = lo_size + hi.bit_count()
            if size > best_size:
                break
            full = lo | hi << h
            if full == 0 or full in skip:
                continue
            if vals is not None and lo_vals[lo] + hi_vals[hi] > cap:
                continue
            if size < best_size or _lex_smaller(full, best):
                best, best_size = full, size
    return best


def _lex_smaller(a: int, b: int) -> bool:
    """For equal-size masks: is a's sorted element tuple below b's?"""
    diff = a ^ b
    return bool(a & diff & -diff)


def verify_weighting(s: SetSystem, phi: WeightFunction) -> Verdict:
    """Check over all subsets: a subset has total weight 1 iff it is a family
    member.  The offending subset of a no is the smallest one, by size and
    then lexicographic element order."""
    if len(phi.weights) != s.ground_size:
        raise GraphError("weight vector length mismatch")
    for f in s.family:
        total = sum((phi.weights[i] for i in f), Fraction(0))
        if total != 1:
            return no(OffendingSubset(elements=f, value=total, in_family=True))
    # with no kernel, the subsets forced to total 1 are those that total 1
    found = _scan_forced_subsets(s.family_masks(), (), phi.weights)
    if found is not None:
        return no(OffendingSubset(elements=found[0], value=found[1], in_family=False))
    return yes(phi)


# ---------------------------------------------------------------------------
# forced-subset scans

def _kernel_keys(kernel, size: int) -> tuple[list[int], int]:
    """Each element's scaled kernel coordinates packed into one integer key
    as balanced digits in a radix above twice every coordinate's absolute
    column sum, so a subset's key sum is zero exactly when all its kernel dot
    products are.  Returns (keys, radix ** len(kernel)); every subset's key
    sum is below half the latter in absolute value."""
    scaled = [[int(q * _common_denominator(k)) for q in k] for k in kernel]
    radix = 2 * max((sum(map(abs, k)) for k in scaled), default=0) + 1
    keys = [0] * size
    for k in reversed(scaled):
        keys = [key * radix + c for key, c in zip(keys, k)]
    return keys, radix ** len(scaled)


def _scan_forced_subsets(family_masks, kernel, particular, at_most: bool = False):
    """Smallest (by size, then lexicographic element order) nonempty
    non-family subset whose total is constant over the affine space spanned
    by `kernel` around `particular` and equals 1 (at most 1 with `at_most`).

    Returns (elements, value) or None.  A subset's total is constant exactly
    when its _kernel_keys sum is zero; for the equality test the scaled
    particular value is one more digit above the kernel keys.
    """
    den_p = _common_denominator(particular)
    p_int = [int(q * den_p) for q in particular]
    keys, top = _kernel_keys(kernel, len(p_int))
    skip = set(family_masks)
    if at_most:
        found = _smallest_subset(keys, 0, skip, p_int, den_p)
    else:
        keys = [p * top + key for p, key in zip(p_int, keys)]
        found = _smallest_subset(keys, den_p * top, skip)
    if found is None:
        return None
    elems = _elements(found)
    return elems, Fraction(sum(p_int[i] for i in elems), den_p)


# ---------------------------------------------------------------------------
# the exact decision procedure

def analyze_unit_system(s: SetSystem) -> UnitAnalysis:
    """Solve the unit equations and, if they are feasible, maximize the
    minimum weight over their solutions: one analysis per set system, for
    decide_equi_exact and strong_check."""
    space = solve_unit_system(s)
    if isinstance(space, UnitSystemInfeasible):
        return UnitAnalysis(space)
    m = s.ground_size
    # substitute phi_i = psi_i + t with psi >= 0 and t = t+ - t- (variables
    # m and m + 1, both >= 0)
    eqs = [(row + [Fraction(len(f)), Fraction(-len(f))], rhs)
           for (row, rhs), f in zip(_unit_equations(s), s.family)]
    obj = [Fraction(0)] * m + [Fraction(1), Fraction(-1)]
    res = lp_optimize(m + 2, eqs, obj, direction="max")
    if res.status == UNBOUNDED:  # empty family: anything goes
        return UnitAnalysis(space, Fraction(1), (Fraction(1),) * m)
    assert res.status == OPTIMAL  # t <= 1/|F| for any member F, never unbounded
    t = res.solution[m] - res.solution[m + 1]
    return UnitAnalysis(space, res.value, tuple(res.solution[i] + t for i in range(m)))


def decide_equi_exact(s: SetSystem, analysis: UnitAnalysis | None = None) -> Verdict:
    """Decide whether some strictly positive weighting realizes exactly the
    family as the unit-total subsets.

    yes: carries a WeightFunction that passed exhaustive verification.
    no: carries UnitSystemInfeasible, StrictPositivityFailure, or a
    ForcedValueCertificate with value 1 for a non-family subset.

    A weighting exists iff the strictly positive part of the affine solution
    set is nonempty and no non-family subset is forced to total exactly 1.
    The yes weighting is built, not searched for: phi = phi0 + kappa / Q,
    where phi0 is the max-min point with common denominator D, kappa the
    kernel keys and Q = D * sum |kappa_i| + 1.  Members keep total 1 (kappa
    is a kernel vector), every weight stays above phi0_i - 1/D >= 0, a
    subset with kappa(T) = 0 keeps its constant total (not 1, by the scan),
    and otherwise a total of 1 would need Q * (D - D * phi0(T)) =
    D * kappa(T), whose left side is 0 or at least Q in absolute value and
    whose right side is nonzero and below Q.  `analysis` defaults to
    analyze_unit_system(s).
    """
    analysis = analysis or analyze_unit_system(s)
    space, opt, phi0 = analysis.space, analysis.max_min_weight, analysis.max_min_point
    if isinstance(space, UnitSystemInfeasible):
        return no(space)
    if opt <= 0:
        return no(StrictPositivityFailure(max_min_weight=opt))

    found = _scan_forced_subsets(s.family_masks(), space.kernel_basis,
                                 space.particular)
    if found is not None:
        cert = forced_value(s, found[0], space)
        assert isinstance(cert, ForcedValueCertificate) and cert.value == 1
        return no(cert)

    kappa, _ = _kernel_keys(space.kernel_basis, s.ground_size)
    den = _common_denominator(phi0)
    q = den * sum(map(abs, kappa)) + 1
    phi = WeightFunction(tuple(a + Fraction(k, q) for a, k in zip(phi0, kappa)))
    if not verify_weighting(s, phi).is_yes:
        raise AssertionError("the constructed weighting fails verification")
    return yes(phi)


# ---------------------------------------------------------------------------
# strong variant

def _support_search(s: SetSystem, eqs):
    """Support of the nonnegative unit polytope and a point of it, or None
    when the polytope is empty.

    Elements in no family member are unbounded, so they are in the support.
    For the others, maximize the sum of the coordinates not yet known to be
    positive, move every coordinate positive in the optimizer into the
    support, and repeat until the optimum is 0 or nothing is left.  Each
    round but the last adds at least one element.
    """
    m = s.ground_size
    covered = {i for f in s.family for i in f}
    support = set(range(m)) - covered
    unknown = covered
    points = []
    while True:
        res = lp_optimize(m, eqs, _indicator(unknown, m), direction="max")
        if res.status == INFEASIBLE:
            return None
        assert res.status == OPTIMAL  # every covered coordinate is at most 1
        points.append(res.solution)
        positive = {i for i in unknown if res.solution[i] > 0}
        support |= positive
        unknown -= positive
        if not positive or not unknown:
            break
    # polytope point, positive on the covered support elements: average of
    # the support-search optimizers
    k = len(points)
    center = [sum((p[i] for p in points), Fraction(0)) / k for i in range(m)]
    return support, center


def strong_check(s: SetSystem, analysis: UnitAnalysis | None = None) -> Verdict:
    """Decide the strong variant over the nonnegative unit polytope
    {phi >= 0, every family member totals 1}.

    no iff the polytope is empty, or some nonempty non-family subset T has
    the same total gamma <= 1 at every polytope point; witness (T, gamma) is
    the smallest such subset.  Those subsets are orthogonal to the kernel of
    the unit rows and the coordinates that vanish on the polytope.  All of it
    is read off `analysis` (default analyze_unit_system(s)): the polytope is
    empty iff the unit system is infeasible or the max-min weight negative;
    a positive max-min weight means that nothing vanishes, and the witness's
    forced-value certificate re-verifies it without an LP.  Only a max-min
    weight of 0 needs the LPs of _support_search and check_strong_witness.
    """
    m = s.ground_size
    if m > DEFAULT_STRONG_GROUND_LIMIT:
        raise BudgetExhausted(f"ground size {m} exceeds strong-check limit",
                              DEFAULT_STRONG_GROUND_LIMIT)
    analysis = analysis or analyze_unit_system(s)
    opt = analysis.max_min_weight
    if opt is None or opt < 0:
        return no(EmptyPolytope())
    support, center, kernel = range(m), analysis.max_min_point, analysis.space.kernel_basis
    if opt == 0:
        support, center = _support_search(s, _unit_equations(s))
        vanishing = [i for i in range(m) if i not in support]
        _, _, combos = solve_exact([[k[i] for k in kernel] for i in vanishing],
                                   [0] * len(vanishing))
        kernel = [[sum((c * k[i] for c, k in zip(combo, kernel)), Fraction(0))
                   for i in range(m)] for combo in combos]

    found = _scan_forced_subsets(s.family_masks(), kernel, center, at_most=True)
    if found is None:
        return yes({"support": tuple(sorted(support)), "subsets_checked": (1 << m) - 1})
    witness = StrongWitness(target=found[0], gamma=found[1])
    if opt == 0:
        check_strong_witness(s, witness)
    else:  # T's total is fixed on every solution, and the max-min point is one
        cert = forced_value(s, witness.target, analysis.space)
        if not isinstance(cert, ForcedValueCertificate) or cert.value != witness.gamma:
            raise AssertionError("strong witness does not re-verify")
    return no(witness)


def check_strong_witness(s: SetSystem, w: StrongWitness) -> None:
    m = s.ground_size
    eqs = _unit_equations(s)
    obj = _indicator(w.target, m)
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
