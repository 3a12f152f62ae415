"""Executable validators for the spectral laws on boundary-marked trees.

Each checker evaluates one law on one concrete instance and returns a
CheckReport with numeric margins instead of a bare boolean, so batch runs
can log how close every instance came to the tolerance line.  Checkers are
pure and deterministic given (graph, seed); reports serialize to JSON lines.

Where a law pairs two computational routes (eigensolve of a surgered graph
against a flow bisection), the two sides are produced by disjoint code
paths on purpose; agreement of the margins is the evidence.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import GraphValidationError
from .flows import sigma
from .graphs import (
    BoundaryGraph,
    _arms,
    _bfs,
    _induced,
    branch,
    build,
    diametral_path,
    diameter,
    double_at,
    double_ball,
    is_subgraph,
    leaves,
    remove_leaf,
    trees_isomorphic,
)
from .serialize import to_graph6
from .spectral import steklov_spectrum

STRICT_GAP_REL = 1e-9  # a strict partition gap exceeds this times lambda_2
BOUND_SLACK = 1e-9  # lambda_2 may miss a closed-form bound by this much


@dataclass
class CheckReport:
    check: str
    instance: str
    passed: bool
    margins: dict[str, float]
    anomalies: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "passed": self.passed,
            "margins": {k: float(v) for k, v in self.margins.items()},
            "anomalies": list(self.anomalies),
            "details": self.details,
        }

    def json_line(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


def _instance(g: BoundaryGraph, **params) -> str:
    extra = " ".join(f"{k}={v}" for k, v in params.items())
    base = f"n={g.n} g6={to_graph6(g)}"
    return f"{base} {extra}".strip()


def _require_leaf_boundary_tree(g: BoundaryGraph, *vertices: int) -> None:
    if not g.is_tree:
        raise GraphValidationError("checker is defined on trees")
    if not g.is_default_boundary:
        raise GraphValidationError("checker needs boundary == leaves")
    for v in vertices:
        if not 0 <= v < g.n:
            raise GraphValidationError(f"vertex {v} out of range")


def _branch_sigma(
    g: BoundaryGraph, j: int, x: int, tol: Tolerances
) -> float:
    """sigma of the closed branch hanging from neighbor j of x, taken at x."""
    sub, relabel = branch(g, j, x)
    return sigma(sub, relabel[x], method="bisection", tol=tol).sigma


# ---------------------------------------------------------------------------
# spectral gap is monotone under taking subtrees


def check_monotonicity_chain(
    g: BoundaryGraph, seed: int = 0, tol: Tolerances = DEFAULT_TOLERANCES
) -> CheckReport:
    """Remove leaves one at a time (seeded random order) down to three
    vertices; the spectral gap must never decrease along the chain."""
    _require_leaf_boundary_tree(g)
    rng = random.Random(seed)
    cur = g
    lam_prev = steklov_spectrum(cur, tol).lambda2
    chain = [(cur.n, lam_prev)]
    worst = math.inf
    anomalies: list[str] = []
    while cur.n > 3:
        v = rng.choice(sorted(leaves(cur)))
        cur, _ = remove_leaf(cur, v)
        lam = steklov_spectrum(cur, tol).lambda2
        worst = min(worst, lam - lam_prev)
        chain.append((cur.n, lam))
        lam_prev = lam
    if len(chain) == 1:
        anomalies.append("chain is empty (graph already at minimum size)")
        worst = math.inf
    passed = worst >= -tol.assertion
    return CheckReport(
        check="monotonicity_chain",
        instance=_instance(g, seed=seed),
        passed=passed,
        margins={"worst_step": worst},
        anomalies=anomalies,
        details={"chain": [[n, lam] for n, lam in chain]},
    )


# ---------------------------------------------------------------------------
# the doubled graph's gap equals the smallest branch sigma


def check_doubling(
    g: BoundaryGraph, x: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> CheckReport:
    """lambda_2 of the graph doubled at x equals the minimum sigma over the
    closed branches at x, and every gap eigenvector of the double vanishes
    at the glue vertex.  The two sides come from an eigensolve and a flow
    bisection respectively."""
    _require_leaf_boundary_tree(g, x)
    spec_d = steklov_spectrum(double_at(g, x), tol)
    lam2d = spec_d.lambda2
    branch_sigmas = {
        j: _branch_sigma(g, j, x, tol) for j in sorted(g.neighbors(x))
    }
    min_sigma = min(branch_sigmas.values())
    gap = abs(lam2d - min_sigma)
    lo, hi = spec_d.group_of(2, tol.multiplicity)
    wedge_value = max(
        abs(float(spec_d.extensions[x, k - 1]))
        for k in range(lo, hi + 1)
    )
    passed = gap <= tol.agreement and wedge_value <= tol.vanishing
    return CheckReport(
        check="doubling",
        instance=_instance(g, x=x),
        passed=passed,
        margins={"doubling_gap": gap, "wedge_value": wedge_value},
        details={
            "lambda2_double": lam2d,
            "branch_sigmas": {str(j): s for j, s in branch_sigmas.items()},
            "gap_group": [lo, hi],
        },
    )


# ---------------------------------------------------------------------------
# doubling partitions the gap: below at boundary vertices, at most equal inside


def check_partition(
    g: BoundaryGraph, x: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> CheckReport:
    """At a boundary vertex the doubled gap equals sigma and sits strictly
    below the gap of the original graph; at an interior vertex it never
    exceeds it."""
    _require_leaf_boundary_tree(g, x)
    lam2g = steklov_spectrum(g, tol).lambda2
    if x in g.boundary:
        sig = sigma(g, x, method="doubling", tol=tol).sigma
        strict_margin = lam2g - sig
        passed = strict_margin > STRICT_GAP_REL * lam2g
        return CheckReport(
            check="partition",
            instance=_instance(g, x=x, kind="boundary"),
            passed=passed,
            margins={"strict_margin": strict_margin},
            details={"lambda2": lam2g, "sigma": sig, "sigma_route": "doubling"},
        )
    lam2d = steklov_spectrum(double_at(g, x), tol).lambda2
    margin = lam2g - lam2d
    passed = margin >= -tol.assertion
    return CheckReport(
        check="partition",
        instance=_instance(g, x=x, kind="interior"),
        passed=passed,
        margins={"interior_margin": margin},
        details={"lambda2": lam2g, "lambda2_double": lam2d},
    )


# ---------------------------------------------------------------------------
# gap vs. diameter, with the equality structure reported


@dataclass(frozen=True)
class DiameterDecomposition:
    """A diametral path x_0..x_L plus what hangs off each of its vertices.

    boundary_counts[k] counts boundary vertices of the ambient tree inside
    the component of x_k after the path edges at x_k are deleted, not
    counting x_k itself.  h2 materializes the midpoint component when L is
    even and it is larger than a single vertex.
    """

    path: tuple[int, ...]
    boundary_counts: tuple[int, ...]
    h2: BoundaryGraph | None
    h2_center: int | None


def diameter_decomposition(g: BoundaryGraph) -> DiameterDecomposition:
    _require_leaf_boundary_tree(g)
    path = diametral_path(g)
    counts = []
    components: list[list[int]] = []
    for k, xk in enumerate(path):
        # on a tree, deleting the path edges at xk is blocking its path neighbors
        blocked = set(path[max(k - 1, 0) : k + 2]) - {xk}
        comp = _bfs(g.adjacency, xk, blocked)[0]  # xk first
        components.append(comp)
        counts.append(len(g.boundary.intersection(comp[1:])))
    h2: BoundaryGraph | None = None
    h2_center: int | None = None
    length = len(path) - 1
    if length % 2 == 0:
        mid = length // 2
        comp = components[mid]
        if len(comp) > 1:
            sub_edges, relabel = _induced(g, comp)
            h2 = build(len(comp), sub_edges, strict=len(comp) > 2)
            h2_center = relabel[path[mid]]
    return DiameterDecomposition(
        path=tuple(path),
        boundary_counts=tuple(counts),
        h2=h2,
        h2_center=h2_center,
    )


def check_diameter(
    g: BoundaryGraph, tol: Tolerances = DEFAULT_TOLERANCES
) -> CheckReport:
    """The spectral gap is at most 2/diameter.  When equality is attained,
    the structural conditions of the even-diameter characterization are
    evaluated and reported — agreement or discrepancy — without asserting
    them, because odd-diameter paths also attain the bound."""
    _require_leaf_boundary_tree(g)
    length = diameter(g)
    lam2g = steklov_spectrum(g, tol).lambda2
    bound = 2.0 / length
    margin = bound - lam2g
    passed = lam2g <= bound + BOUND_SLACK
    anomalies: list[str] = []
    details: dict = {"lambda2": lam2g, "diameter": length}
    if abs(lam2g - bound) < tol.assertion:
        dec = diameter_decomposition(g)
        even = length % 2 == 0
        mid = length // 2 if even else None
        off_positions = [
            k
            for k, c in enumerate(dec.boundary_counts)
            if c > 0 and k != mid
        ]
        hangs_ok = not off_positions
        if not even:
            mid_ok = None
        elif dec.h2 is None:
            mid_ok = True
        else:
            lam2_h2d = steklov_spectrum(double_at(dec.h2, dec.h2_center), tol).lambda2
            mid_ok = lam2_h2d >= bound - tol.assertion
            details["lambda2_midpoint_double"] = lam2_h2d
        structure = {
            "diameter_even": even,
            "branches_only_at_midpoint": hangs_ok,
            "midpoint_double_at_least_bound": mid_ok,
        }
        details["equality_structure"] = structure
        details["path"] = list(dec.path)
        details["boundary_counts"] = list(dec.boundary_counts)
        if not (even and hangs_ok and mid_ok is not False):
            anomalies.append(
                "gap attains 2/diameter but the even-diameter structure "
                f"conditions do not all hold: {structure}"
            )
    return CheckReport(
        check="diameter",
        instance=_instance(g),
        passed=passed,
        margins={"bound_margin": margin},
        anomalies=anomalies,
        details=details,
    )


# ---------------------------------------------------------------------------
# gap vs. degree and diameter, with rigidity


def doubled_branch_graph(D: int, R: int) -> BoundaryGraph:
    """The even-case extremal pattern: a depth-R spine vertex over a complete
    D-ary tree, doubled at the top.

    Concretely: vertex 0 joined to the root of a D-ary tree of depth R-1,
    glued with a second copy of itself at vertex 0.
    """
    if D < 2 or R < 1:
        raise GraphValidationError("need D >= 2 and R >= 1")
    edges = [(0, 1)]
    n = _arms(edges, [1], 2, D, R - 1)
    half = build(n, edges, boundary=None, strict=n > 2)
    return double_at(half, 0)


def check_degree_diameter(
    g: BoundaryGraph, D: int, L: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> CheckReport:
    """The spectral gap of a tree with degrees <= D+1 and diameter <= L is
    bounded below by the parity-matching closed form; equality forces the
    extremal structure (checked exactly for n <= 20)."""
    _require_leaf_boundary_tree(g)
    if D < 2:
        raise GraphValidationError("degree parameter D must be >= 2")
    if max(g.degree(v) for v in range(g.n)) > D + 1:
        raise GraphValidationError(f"graph has a vertex of degree > {D + 1}")
    actual_l = diameter(g)
    if actual_l > L:
        raise GraphValidationError(f"graph has diameter {actual_l} > {L}")
    if L % 2 == 0:
        R = L // 2
        bound = (D - 1) / (D**R - 1)
        parity = "even"
    else:
        R = (L - 1) // 2
        bound = 2 * (D - 1) / (D ** (R + 1) + D**R - 2)
        parity = "odd"
    lam2g = steklov_spectrum(g, tol).lambda2
    margin = lam2g - bound
    passed = margin >= -BOUND_SLACK
    anomalies: list[str] = []
    details: dict = {
        "lambda2": lam2g,
        "bound": bound,
        "parity": parity,
        "D": D,
        "L": L,
    }
    if abs(lam2g - bound) <= tol.assertion:
        if g.n <= 20:
            if parity == "even":
                pattern = doubled_branch_graph(D, R)
                rigid = pattern.n <= g.n and is_subgraph(pattern, g)
                details["rigidity_mode"] = "contains_doubled_branch"
            else:
                rigid = trees_isomorphic(g, double_ball(D, R))
                details["rigidity_mode"] = "isomorphic_to_double_ball"
            details["rigidity"] = "confirmed" if rigid else "violated"
            if not rigid:
                passed = False
        else:
            anomalies.append(
                f"equality attained but rigidity check skipped (n={g.n} > 20)"
            )
    else:
        details["rigidity"] = "not_applicable"
    return CheckReport(
        check="degree_diameter",
        instance=_instance(g, D=D, L=L),
        passed=passed,
        margins={"bound_margin": margin},
        anomalies=anomalies,
        details=details,
    )


# ---------------------------------------------------------------------------
# branch dichotomy at an interior vertex


def check_branch_dichotomy(
    g: BoundaryGraph, z: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> CheckReport:
    """Classify every closed-branch sigma at z against the tree's gap.

    At most one branch may sit strictly below; exactly one below forces all
    others strictly above; none below forces at least two to attain the gap
    exactly, and then every gap eigenfunction vanishes at z."""
    _require_leaf_boundary_tree(g, z)
    if g.degree(z) < 2:
        raise GraphValidationError("dichotomy needs a vertex of degree >= 2")
    spec_g = steklov_spectrum(g, tol)
    lam2g = spec_g.lambda2
    sigmas = {j: _branch_sigma(g, j, z, tol) for j in sorted(g.neighbors(z))}
    below = [j for j, s in sigmas.items() if s < lam2g - tol.assertion]
    equal = [j for j, s in sigmas.items() if abs(s - lam2g) <= tol.assertion]
    min_sigma = min(sigmas.values())
    anomalies: list[str] = []
    margins: dict[str, float] = {"min_sigma_vs_gap": lam2g - min_sigma}
    ok = True
    if min_sigma > lam2g + tol.assertion:
        ok = False
        anomalies.append("smallest branch sigma exceeds the gap")
    if len(below) > 1:
        ok = False
        anomalies.append(f"{len(below)} branches strictly below the gap")
    if len(below) == 1 and equal:
        ok = False
        anomalies.append("a branch below the gap coexists with one attaining it")
    if not below:
        if len(equal) < 2:
            ok = False
            anomalies.append(
                f"gap attained by {len(equal)} branch(es); at least two required"
            )
        lo, hi = spec_g.group_of(2, tol.multiplicity)
        vanish = max(
            abs(float(spec_g.extensions[z, k - 1])) for k in range(lo, hi + 1)
        )
        margins["vanishing_at_z"] = vanish
        if vanish > tol.vanishing:
            ok = False
            anomalies.append(
                f"gap eigenfunction value {vanish:.3e} at z exceeds tolerance"
            )
    return CheckReport(
        check="branch_dichotomy",
        instance=_instance(g, z=z),
        passed=ok,
        margins=margins,
        anomalies=anomalies,
        details={
            "lambda2": lam2g,
            "branch_sigmas": {str(j): s for j, s in sigmas.items()},
            "below": below,
            "equal": equal,
        },
    )
