"""Submodular function minimization over interval (lattice) families.

Feasible families are intervals ``{B : lower <= B <= upper}`` in the subset
lattice. Minimization is offered twice, deliberately:

* :func:`minimize_bruteforce` scans the family and is the exact reference
  oracle;
* :func:`minimize_mnp` runs the Fujishige-Wolfe minimum-norm-point method on
  the base polytope of the contracted-and-restricted function. The solver
  works in floating point, but candidate minimizers read off the optimal
  point are re-evaluated with the exact rational oracle, and the result is
  only trusted when the duality residual sits below a quarter of the
  caller-supplied value grid. Anything else falls back to brute force and
  says so in the result.

The min-norm-point method has no strongly polynomial running-time bound;
certified-or-fall-back is the contract this module actually delivers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import EnumerationLimitError, SkaError
from .partitions import bit_positions

log = logging.getLogger(__name__)

DEFAULT_BRUTE_FORCE_CAP = 22
WOLFE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class LatticeFamily:
    """Interval family ``{B : lower <= B <= upper}`` of subset bitmasks."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower < 0 or self.upper < 0:
            raise SkaError("family bounds must be nonnegative masks")
        if self.lower & ~self.upper:
            raise SkaError("family lower bound must sit inside the upper bound")

    @property
    def free_mask(self) -> int:
        return self.upper & ~self.lower

    def contains(self, mask: int) -> bool:
        return self.lower & ~mask == 0 and mask & ~self.upper == 0


class SetFunctionOracle:
    """Deterministic exact evaluator of a set function on masks over [n].

    Evaluations are memoized; oracles must be pure.
    """

    def __init__(self, n: int, fn: Callable[[int], Fraction], name: str = "f"):
        self.n = n
        self.name = name
        self._fn = fn
        self._cache: dict[int, Fraction] = {}

    def __call__(self, mask: int) -> Fraction:
        value = self._cache.get(mask)
        if value is None:
            value = Fraction(self._fn(mask))
            self._cache[mask] = value
        return value


def minimize_bruteforce(
    f: SetFunctionOracle, family: LatticeFamily
) -> tuple[Fraction, int, tuple[int, ...]]:
    """Exact minimum over the family by full scan, for at most
    ``DEFAULT_BRUTE_FORCE_CAP`` free elements.

    Returns ``(value, minimizer, all_minimizers)`` with the minimizers in
    canonical (ascending free-bits) order.
    """
    bits = bit_positions(family.free_mask)
    if len(bits) > DEFAULT_BRUTE_FORCE_CAP:
        raise EnumerationLimitError(
            f"family has {len(bits)} free elements, above the brute-force "
            f"cap {DEFAULT_BRUTE_FORCE_CAP}"
        )
    best: Fraction | None = None
    argmins: list[int] = []
    for sub in range(1 << len(bits)):
        mask = family.lower | _embed(sub, bits)
        value = f(mask)
        if best is None or value < best:
            best = value
            argmins = [mask]
        elif value == best:
            argmins.append(mask)
    assert best is not None
    return best, argmins[0], tuple(argmins)


@dataclass(frozen=True)
class MnpResult:
    """Outcome of :func:`minimize_mnp`.

    ``certified`` means the float residual beat the grid test; ``fallback``
    means brute force produced the answer instead. Exactly one of the two is
    set on every successful return.
    """

    value: Fraction
    minimizer: int
    certified: bool
    fallback: bool
    iterations: int
    diagnostic: str | None = None


def minimize_mnp(f: SetFunctionOracle, family: LatticeFamily, rounding_unit) -> MnpResult:
    """Minimize a submodular ``f`` over the family via the min-norm point.

    ``rounding_unit`` must be a positive rational such that every value of
    ``f`` lies on the grid ``{k * rounding_unit}``; it calibrates the
    certificate threshold (residual below ``rounding_unit / 4``).
    """
    import numpy as np  # only the solver needs it; keeps it off the import path

    unit = Fraction(rounding_unit)
    if unit <= 0:
        raise SkaError("rounding unit must be positive")
    bits = bit_positions(family.free_mask)
    m = len(bits)
    base = f(family.lower)
    if m == 0:
        return MnpResult(base, family.lower, certified=True, fallback=False, iterations=0)

    # Contract to the free elements and normalize to zero at the bottom:
    # h(A) = f(lower | A) - f(lower) has the same minimizers over 2^[m].
    def h(sub: int) -> Fraction:
        return f(family.lower | _embed(sub, bits)) - base

    x, iterations, converged = _wolfe_min_norm_point(h, m)

    # Read candidate minimizers off the optimal point: with the exact
    # min-norm point the strictly-negative coordinates form the smallest
    # minimizer, and every minimizer is a prefix of the ascending value
    # order. Evaluate all prefixes exactly and keep the best.
    order = np.argsort(x, kind="stable")
    candidates = {0}
    sub = 0
    for idx in order:
        sub |= 1 << int(idx)
        candidates.add(sub)
    candidates.add(_sub_from_signs(x))
    best_sub = min(candidates)
    best_val = h(best_sub)
    for cand in sorted(candidates):
        value = h(cand)
        if value < best_val:
            best_sub, best_val = cand, value
    lower_bound = float(np.minimum(x, 0.0).sum())
    residual = float(best_val) - lower_bound
    if converged and residual <= float(unit) / 4:
        return MnpResult(
            value=best_val + base,
            minimizer=family.lower | _embed(best_sub, bits),
            certified=True,
            fallback=False,
            iterations=iterations,
        )

    if m > DEFAULT_BRUTE_FORCE_CAP:
        raise SkaError(
            "min-norm point failed to certify and the family is too large for brute force"
        )
    log.info(
        "min-norm point residual %.3g above %.3g (%s); falling back to brute force",
        residual,
        float(unit) / 4,
        f.name,
    )
    value, minimizer, _ = minimize_bruteforce(f, family)
    diagnostic = None
    if float(value) < lower_bound - float(unit) / 4:
        # The polytope lower bound only holds for submodular functions.
        diagnostic = "non-submodular behavior suspected: exact minimum undercuts the base-polytope bound"
    return MnpResult(
        value=value,
        minimizer=minimizer,
        certified=False,
        fallback=True,
        iterations=iterations,
        diagnostic=diagnostic,
    )


def _wolfe_min_norm_point(h: Callable[[int], Fraction], m: int) -> tuple[np.ndarray, int, bool]:
    """Fujishige-Wolfe: minimum-norm point of the base polytope of ``h``.

    Returns ``(point, major_iterations, converged)``. The iteration cap is
    10 * 2**m; hitting it (or a degenerate stall) reports non-convergence so
    the caller can fall back to brute force.
    """
    import numpy as np

    def vertex_for(weights: np.ndarray) -> np.ndarray:
        order = np.argsort(weights, kind="stable")
        v = np.empty(m)
        prefix = 0
        prev = h(0)
        for idx in order:
            prefix |= 1 << int(idx)
            current = h(prefix)
            v[int(idx)] = float(current - prev)
            prev = current
        return v

    x = vertex_for(np.zeros(m))
    corral = [x.copy()]
    lam = np.array([1.0])
    max_iter = 10 * (1 << m)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        q = vertex_for(x)
        nx = float(x @ x)
        if nx - float(x @ q) <= WOLFE_TOLERANCE * max(1.0, nx):
            converged = True
            break
        corral.append(q)
        lam = np.append(lam, 0.0)
        stalled = False
        while True:
            alpha = _affine_min_norm(np.column_stack(corral))
            if np.all(alpha > 1e-12):
                lam = alpha
                break
            # Step from lam toward alpha until the first coefficient hits 0.
            ratios = []
            for i in range(len(lam)):
                if alpha[i] <= 1e-12 and lam[i] - alpha[i] > 1e-300:
                    ratios.append((lam[i] / (lam[i] - alpha[i]), i))
            if not ratios:
                stalled = True
                break
            theta = min(r for r, _ in ratios)
            if theta <= 1e-14 and lam[-1] <= 1e-12:
                # Degenerate: the fresh vertex would be dropped straight
                # away, which can only cycle. Bail out to the fallback.
                stalled = True
                break
            lam = (1.0 - theta) * lam + theta * alpha
            keep = [i for i in range(len(lam)) if lam[i] > 1e-12]
            if len(keep) == len(lam):
                keep.remove(min(ratios)[1])  # force progress: drop the binder
            if not keep:
                stalled = True
                break
            corral = [corral[i] for i in keep]
            lam = lam[keep]
            lam = lam / lam.sum()
        if stalled:
            break
        x = np.column_stack(corral) @ lam
    return x, it, converged


def _affine_min_norm(vertices: np.ndarray) -> np.ndarray:
    """Coefficients of the norm-minimal point in the affine hull of the
    columns, via the normal equations (least-squares re-solve on numerical
    failure)."""
    import numpy as np

    k = vertices.shape[1]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = vertices.T @ vertices
    kkt[k, :k] = 1.0
    kkt[:k, k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:k]


def _sub_from_signs(x: np.ndarray) -> int:
    sub = 0
    for i, value in enumerate(x):
        if value < 0.0:
            sub |= 1 << i
    return sub


def _embed(sub: int, bits: tuple[int, ...]) -> int:
    mask = 0
    for t, pos in enumerate(bits):
        if sub >> t & 1:
            mask |= 1 << pos
    return mask
