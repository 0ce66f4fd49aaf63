"""Adjacency spectral radius, Perron vectors, and degree-edge upper bounds.

Dependency-free by design: power iteration on the shifted matrix A + I.
The shift makes the dominant eigenvalue of a connected graph strictly
largest in absolute value (defeating the +/-lambda oscillation of
bipartite graphs), so the iteration always converges; the radius of A is
recovered by subtracting 1.  Convergence requires both a stable Rayleigh
quotient and a small true residual, and every successful report carries
the residual so callers can recheck the guarantee.

The stopping rule is evaluated lazily: each step makes the decision that
forming the quotient rho and the residual max_u |y_u - rho x_u| in full
would make, but skips the passes that cannot change it.  The entry `top`
where the previous y peaked has x_top = 1 exactly, so if every entry
passed, a probe entry p would have |y_p - y_top x_p| <= |y_p - rho x_p| +
|rho - y_top| x_p < 2 tol in exact arithmetic.  Rounding adds at most
tol / 2 per product that underflows (tol is at least the least
subnormal) and a few units in the last place of y_top, so a passing step
has a computed gap below (1 + 2^-53)(3.5 tol + 2^-52 y_top) for every
tol > 0, and the margin 4 tol + 2^-50 y_top exceeds that even after its
own rounding.  While the
gap is above the margin the step skips rho; a later step that needs it
recomputes it from that step's kept (x, y), to the same bits.  Otherwise
the probe's own residual is tested before the full pass.  The probe
starts at a vertex of least degree (the least entry of the first y) and
moves to the worst entry of every full residual that fails.

One loop serves two entry points.  `spectral_radius` always returns a
report.  `radius_unless_below` screens against a threshold: for a
nonnegative matrix M and a positive vector x, the Collatz-Wielandt bound
lambda(M) <= max_i (Mx)_i / x_i holds, so with M = A + I the iteration
can stop as soon as that maximum, minus 1, falls below the threshold.
The bound needs x > 0 entrywise; x starts at all ones and stays
nonnegative, so it is applied only while no entry has underflowed to 0.

On a small spectral gap the power loop needs about n^2 steps (a path), so
after every LANCZOS_AFTER power steps without a stop, with budget left,
the call hands its current vector to Lanczos (1950): the plain
three-term recurrence on A + I, without reorthogonalisation, which Paige
(1980) showed still converges in the extreme Ritz value.  The top Ritz
value of the tridiagonal T_k comes from Sturm bisection, and a second
pass of the recurrence sums the Ritz vector, so memory stays O(n).  That
vector, scaled to max entry exactly 1, is reported only if the loop's own
Rayleigh quotient and max-norm residual pass tol and its entries are
nonnegative (positive on a connected graph).  Otherwise the power loop
resumes, from the Ritz vector when it is positive and from its last
iterate when not, and tries Lanczos again after another LANCZOS_AFTER
steps.  A tol below the Ritz vector's residual floor near n eps fails
its test, and a few power steps from it then reach tol.  Both phases
count towards `iterations` and `max_iter`.  Calls that stop within
LANCZOS_AFTER steps never reach Lanczos, and the Lanczos phase does not
screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import truediv

from .graphs import Graph

TOL = 1e-10
MAX_ITER = 100000
# power steps before each handover to Lanczos of a call that has not stopped
LANCZOS_AFTER = 400


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""


@dataclass(frozen=True)
class SpectralReport:
    """Result of a spectral radius computation.

    lam: the adjacency spectral radius.
    perron: eigenvector approximation, normalized to unit max entry.
    iterations: steps used: power steps, plus the steps of every Lanczos
        attempt, one after each LANCZOS_AFTER power steps without a stop.
    residual: max-norm of A*x - lam*x at termination.
    connected: whether the graph was connected (if not, the Perron
        positivity guarantee is waived but the radius is still correct).
    """

    lam: float
    perron: tuple[float, ...]
    iterations: int
    residual: float
    connected: bool

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "perron": list(self.perron),
            "iterations": self.iterations,
            "residual": self.residual,
            "connected": self.connected,
        }


def spectral_radius(g: Graph, tol: float = TOL, max_iter: int = MAX_ITER) -> SpectralReport:
    """Spectral radius and Perron vector of the adjacency matrix.

    Requires n >= 1.  Raises ConvergenceError if the tolerance is not met
    within max_iter iterations.
    """
    return _power_iteration(g, tol, max_iter, None)


def radius_unless_below(g: Graph, below: float) -> SpectralReport | None:
    """None as soon as an iterate certifies lam(G) < below; otherwise the
    report `spectral_radius(g)` gives, to the last bit.

    The certificate is the Collatz-Wielandt bound on A + I: with y the
    product (A + I)x of a positive iterate x, lam(G) <= max_i y_i/x_i - 1.
    It is tested only while min(x) > 0.  The iterates, and so the report,
    are those of `spectral_radius`: the screen only adds an earlier exit.
    """
    return _power_iteration(g, TOL, MAX_ITER, below)


def _power_iteration(
    g: Graph, tol: float, max_iter: int, below: float | None
) -> SpectralReport | None:
    n = g.n
    if n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    epairs = g.edges()
    connected = g.is_connected()
    probe = min(range(n), key=g.degree)

    # x always has max entry exactly 1, at x[top]; on success the report
    # carries the very (rho, x) pair whose residual was measured, so the
    # residual contract holds for the returned vector, not a later iterate.
    # rho_prev is None when the last step skipped rho; kept is its (x, y).
    x = [1.0] * n
    top = 0
    rho_prev: float | None = float("inf")
    kept = None
    first = 1
    while True:
        last = min(max_iter, first + LANCZOS_AFTER - 1)
        for it in range(first, last + 1):
            y = _shifted_product(epairs, x)
            if below is not None and min(x) > 0.0 and max(map(truediv, y, x)) - 1.0 < below:
                return None
            rho = None
            if abs(y[probe] - y[top] * x[probe]) <= 4.0 * tol + y[top] * 2.0**-50:
                rho = _rayleigh(x, y)
                if abs(y[probe] - rho * x[probe]) < tol:
                    if rho_prev is None:
                        rho_prev = _rayleigh(*kept)
                    if abs(rho - rho_prev) < tol:
                        residuals = [abs(y[u] - rho * x[u]) for u in range(n)]
                        residual = max(residuals)
                        if residual < tol:
                            return SpectralReport(
                                lam=rho - 1.0,
                                perron=tuple(x),
                                iterations=it,
                                residual=residual,
                                connected=connected,
                            )
                        probe = residuals.index(residual)
            scale = max(y)  # >= 1 since y >= x elementwise and max(x) = 1
            top = y.index(scale)
            kept = (x, y)
            x = [v / scale for v in y]
            rho_prev = rho
        if last == max_iter:
            raise ConvergenceError(
                f"power iteration did not reach tol={tol} within {max_iter} iterations"
            )
        # LANCZOS_AFTER power steps and budget left: try Lanczos from x; if
        # its vector fails the report's own test, the power loop resumes
        # from that vector when it is positive, else from x
        steps, z = _lanczos(epairs, x, tol, max_iter - last)
        if z is not None and min(z) >= 0.0 and (min(z) > 0.0 or not connected):
            y = _shifted_product(epairs, z)
            rho = _rayleigh(z, y)
            residual = max([abs(y[u] - rho * z[u]) for u in range(n)])
            if residual < tol:
                return SpectralReport(
                    lam=rho - 1.0,
                    perron=tuple(z),
                    iterations=last + steps,
                    residual=residual,
                    connected=connected,
                )
            if min(z) > 0.0:
                # z has max entry exactly 1.0; no rho of its own yet
                x, top, rho_prev, kept = z, z.index(1.0), float("inf"), None
        first = last + steps + 1


def _shifted_product(epairs, x: list[float]) -> list[float]:
    """(A + I) x, the +I part first, then each edge in epairs' order."""
    y = list(x)
    for u, v in epairs:
        y[u] += x[v]
        y[v] += x[u]
    return y


def _rayleigh(x: list[float], y: list[float]) -> float:
    """The Rayleigh quotient x.y / x.x, summed left to right."""
    dot_xy = 0.0
    dot_xx = 0.0
    for xu, yu in zip(x, y):
        dot_xy += xu * yu
        dot_xx += xu * xu
    return dot_xy / dot_xx


# -- Lanczos phase --------------------------------------------------------------


def _lanczos(epairs, x: list[float], tol: float, budget: int) -> tuple[int, list[float] | None]:
    """Plain three-term Lanczos on A + I from x, with no reorthogonalisation.

    Returns the steps taken, at most budget, and the top Ritz vector scaled
    so that its largest entry is exactly 1.0, or None when the recurrence
    gave no vector worth testing.  The basis is never stored: T_k keeps
    the alphas and betas, and a second pass of the same recurrence, to the
    same bits, sums the Ritz vector.
    """
    n = len(x)
    root_n = math.sqrt(n)
    scale = _norm(x)
    start = [v / scale for v in x]
    q = start
    alphas: list[float] = []
    betas: list[float] = []
    q_prev = [0.0] * n
    beta = 0.0
    for k in range(1, budget + 1):
        w = [wu - beta * pu for wu, pu in zip(_shifted_product(epairs, q), q_prev)]
        alpha = 0.0
        for qu, wu in zip(q, w):
            alpha += qu * wu
        w = [wu - alpha * qu for wu, qu in zip(w, q)]
        alphas.append(alpha)
        beta = _norm(w)
        theta, s = _top_ritz(alphas, betas)
        # the unit Ritz vector has 2-norm residual beta |s_k| / ||s||, and
        # scaled to unit max entry a max-norm residual at most sqrt(n) times
        # that; rounding keeps the true residual above about n eps theta,
        # so past that floor more steps cannot help
        estimate = beta / _norm(s) * root_n
        if estimate < tol or estimate <= n * 2.0**-52 * theta:
            break
        if k == budget or k == n:
            return k, None
        betas.append(beta)
        q_prev, q = q, [wu / beta for wu in w]
    # second pass: the same q_j from the kept coefficients, summed into z
    q = start
    q_prev = [0.0] * n
    z = [0.0] * n
    beta = 0.0
    for j, sj in enumerate(s):
        for u in range(n):
            z[u] += sj * q[u]
        if j + 1 == len(s):
            break
        w = [wu - beta * pu for wu, pu in zip(_shifted_product(epairs, q), q_prev)]
        alpha = alphas[j]
        beta = betas[j]
        q_prev, q = q, [(wu - alpha * qu) / beta for wu, qu in zip(w, q)]
    peak = max(z, key=abs)
    return k, [zu / peak for zu in z]


def _top_ritz(alphas: list[float], betas: list[float]) -> tuple[float, list[float]]:
    """The top eigenvalue of the tridiagonal T with diagonal alphas and
    off-diagonal betas (all positive), by Sturm bisection to the last bit,
    and its eigenvector with last entry 1 by the backward recurrence of
    (T - theta) s = 0, which grows towards the head where a converging
    Ritz vector has its weight."""
    k = len(alphas)
    squares = [b * b for b in betas]
    # every diagonal entry is a Rayleigh quotient of T; Gershgorin bounds above
    padded = [0.0, *betas, 0.0]
    lo = max(alphas)
    hi = max(a + padded[i] + padded[i + 1] for i, a in enumerate(alphas))
    while True:
        mid = lo + (hi - lo) / 2.0
        if not lo < mid < hi:
            break
        # all eigenvalues lie below mid iff every pivot of T - mid I is negative
        d = alphas[0] - mid
        i = 1
        while d < 0.0 and i < k:
            d = alphas[i] - mid - squares[i - 1] / d
            i += 1
        if d < 0.0:
            hi = mid
        else:
            lo = mid
    theta = hi
    s = [0.0] * k
    s[k - 1] = 1.0
    if k > 1:
        s[k - 2] = (theta - alphas[k - 1]) / betas[k - 2]
    for i in range(k - 2, 0, -1):
        s[i - 1] = ((theta - alphas[i]) * s[i] - betas[i] * s[i + 1]) / betas[i - 1]
    return theta, s


def _norm(x: list[float]) -> float:
    """The 2-norm, summed left to right."""
    acc = 0.0
    for v in x:
        acc += v * v
    return math.sqrt(acc)


# -- degree-edge upper bound --------------------------------------------------


def hong_bound_formula(x: float, p: int, q: int) -> float:
    """The bound curve f(x) = (x-1)/2 + sqrt(2q - px + (1+x)^2/4) for a
    graph with p vertices and q edges, as a function of the minimum degree
    x.  Decreasing in x on 0 <= x <= p-1 while 2q <= p(p-1).
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if 2 * q > p * (p - 1):
        raise ValueError(f"q={q} exceeds the simple-graph maximum for p={p}")
    if not 0 <= x <= p - 1:
        raise ValueError(f"x={x} outside [0, {p - 1}]")
    inner = 2 * q - p * x + (1 + x) ** 2 / 4.0
    if inner < 0:
        # the curve leaves the reals for x > 2q/p-ish; graphs never land
        # here (a min degree x forces 2q >= px)
        raise ValueError(f"curve undefined at x={x} for (p={p}, q={q})")
    return (x - 1) / 2.0 + math.sqrt(inner)


def hong_bound(g: Graph) -> float:
    """Degree-edge spectral bound: lam(G) <= (d-1)/2 + sqrt(2m - nd + (d+1)^2/4)
    with d the minimum degree.  Requires min degree >= 1; equality holds
    exactly for the d-regular graphs and the graphs whose degrees all lie
    in {d, n-1}.
    """
    if g.n == 0 or g.min_degree() < 1:
        raise ValueError("bound requires minimum degree at least 1")
    return hong_bound_formula(g.min_degree(), g.n, g.edge_count)


# -- equitable partitions and quotient matrices -------------------------------


@dataclass(frozen=True)
class QuotientMatrix:
    """Quotient of an equitable vertex partition: entry (i, j) is the
    number of neighbours in part j of any vertex of part i."""

    parts: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[int, ...], ...]


def quotient_matrix(g: Graph, parts: list[list[int]]) -> QuotientMatrix:
    """Build the quotient matrix, verifying equitability exactly.

    Every vertex must occur in exactly one part and no part may be empty;
    the partition is equitable iff for all parts i, j every vertex of part
    i has the same number of neighbours in part j.
    """
    seen = 0
    masks = []
    for i, part in enumerate(parts):
        if not part:
            raise ValueError(f"part {i} is empty; drop empty parts before the call")
        pm = 0
        for v in part:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if seen >> v & 1:
                raise ValueError(f"vertex {v} occurs in two parts")
            seen |= 1 << v
            pm |= 1 << v
        masks.append(pm)
    if seen != (1 << g.n) - 1:
        raise ValueError("parts do not cover the vertex set")

    entries = []
    for i, part in enumerate(parts):
        counts = [(g.adj[part[0]] & pm).bit_count() for pm in masks]
        for v in part[1:]:
            for j, pm in enumerate(masks):
                if (g.adj[v] & pm).bit_count() != counts[j]:
                    raise ValueError(
                        f"partition not equitable: vertices {part[0]} and {v} of "
                        f"part {i} differ in neighbours into part {j}"
                    )
        entries.append(tuple(counts))
    return QuotientMatrix(
        parts=tuple(tuple(p) for p in parts), entries=tuple(entries)
    )


def quotient_spectral_radius(g: Graph, parts: list[list[int]]) -> float:
    """Dominant eigenvalue of the equitable-partition quotient matrix.

    For an equitable partition of a connected graph this equals the
    adjacency spectral radius, which gives an independent cross-check of
    the power iteration on A.
    """
    quo = quotient_matrix(g, parts)
    m = len(quo.entries)
    # power iteration on (B + I); B is tiny (one row per part) but not
    # symmetric, so convergence is judged on the estimate and the residual.
    # Sums run left to right, not through sum(), whose float summation
    # changed in Python 3.12, so every supported Python gives one result.
    x = [1.0] * m
    rho_prev = float("inf")
    for _ in range(MAX_ITER):
        y = []
        for i in range(m):
            acc = 0.0
            for j in range(m):
                acc += quo.entries[i][j] * x[j]
            y.append(x[i] + acc)
        rho = _rayleigh(x, y)
        residual = max(abs(y[i] - rho * x[i]) for i in range(m))
        scale = max(abs(v) for v in y) or 1.0
        x = [v / scale for v in y]
        if abs(rho - rho_prev) < 1e-12 and residual < 1e-12 * max(1.0, rho):
            return rho - 1.0
        rho_prev = rho
    raise ConvergenceError("quotient power iteration did not converge")
