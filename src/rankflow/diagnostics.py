"""Kinetic and entropy structure checks for solver output.

The solution u is probed through the kinetic function chi(xi, u), smooth
compactly supported test functions transported along the characteristics
x = y + b(xi) t + gamma(xi) z_t, and the parabolic dissipation measure
with density (1/2)(S(u)_x)^2 delta_{u(t,x)}(dxi).  Each diagnostic returns
a residual that should vanish (or decay under refinement) for solutions of
the conditional-CDF equation; none of them assumes anything about how the
snapshots were produced.

Every integral int int chi(xi, u) g dx dxi is taken in layer-cake form:
for the CDF u, {x : u(x) > xi} = (q(xi), inf) with q its quantile
function, so the x-integral of a transported bump is closed form and one
xi quadrature (`_kinetic_rule`) remains.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bumps import Bump1D
from .bumps import bump, bump_d1, bump_d2  # noqa: F401  (the benchmark traces rankflow.diagnostics.bump*)
from .coefficients import _GL_NODES, _GL_WEIGHTS, CoefficientSet
from .measures import GridFunction
from .randomness import _sorted_union, grid_indices
from .solver import SpdeSolution

__all__ = [
    "BumpTestFunction",
    "RhoValues",
    "eval_rho",
    "chain_rule_residual",
    "chain_rule_forms",
    "coarea_check",
    "dissipation_measure",
    "entropy_identity_residual",
    "weak_form_residual",
]

# the xi rule breaks [0, 1] at k / _XI_PIECES as well as at u's values, so
# that b, sigma, gamma and the xi-bumps are resolved where u's values are
# sparse: in its tails and across a jump of u
_XI_PIECES = 256

MIN_XI_SCALE = 0.05


def _kinetic_rule(u: GridFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and u's quantiles q(xi) (`GridFunction.quantiles`) of
    the composite order-8 Gauss-Legendre rule on [0, 1] whose breakpoints
    are k / _XI_PIECES and the values of u clipped to [0, 1].  q is linear
    between consecutive values of u, and a plateau of u is a jump of q at
    its level, which is a breakpoint, so every piece integrates a smooth
    function of q."""
    cuts = _sorted_union(np.arange(_XI_PIECES + 1) / _XI_PIECES, np.clip(u.values, 0.0, 1.0))
    width = np.diff(cuts)
    nodes = (cuts[:-1, None] + (width[:, None] * (_GL_NODES + 1.0)) * 0.5).ravel()
    weights = ((0.5 * width)[:, None] * _GL_WEIGHTS).ravel()
    return nodes, weights, u.quantiles(nodes)


def _x_side(u: GridFunction, f: np.ndarray, nodes: np.ndarray, terms: np.ndarray) -> float:
    """An integral over the whole line, given as f at the cell centres and,
    in co-area form, as the xi rule's weighted `terms`: the trapezoid sum
    of f from the first centre to the last, plus `terms` over the levels
    that u rises through on its end half-cells, from 0 at x_min to u_1 and
    from u_J to 1 at x_max, which a sum on the cells does not see."""
    lo, hi = np.searchsorted(nodes, np.clip(u.values[[0, -1]], 0.0, 1.0))
    return float((np.sum(f) - 0.5 * (f[0] + f[-1])) * u.dx + np.sum(terms[:lo]) + np.sum(terms[hi:]))


@dataclass(frozen=True)
class BumpTestFunction:
    """Tensorized bump rho0(x~, xi~) = psi_{r_x}(x~) psi_{r_xi}(xi~),
    centered at (y, eta); each factor is a unit-mass `Bump1D` centred at 0,
    `fx` of radius r_x and `fxi` of radius r_xi, evaluated at the offsets
    x~ = (x - y) - shift and xi~ = xi - eta."""

    eta: float
    y: float
    r_xi: float
    r_x: float
    fx: Bump1D = field(init=False, repr=False, compare=False)
    fxi: Bump1D = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # negated comparisons, so that NaN is rejected too
        if not MIN_XI_SCALE <= self.r_xi < np.inf:
            raise ValueError(
                f"r_xi = {self.r_xi} must be finite and at least {MIN_XI_SCALE}; the chain rule's "
                "rhs and the dissipation pairing sample it at the grid values of u, which "
                "cannot resolve narrower bumps"
            )
        if not 0.0 < self.r_x < np.inf:
            raise ValueError(f"r_x = {self.r_x} must be positive and finite")
        for name, centre in (("eta", self.eta), ("y", self.y)):
            if not abs(centre) < np.inf:
                raise ValueError(f"{name} = {centre} must be finite")
        object.__setattr__(self, "fx", Bump1D(0.0, self.r_x))
        object.__setattr__(self, "fxi", Bump1D(0.0, self.r_xi))

    def rho0(self, xt, xit):
        return self.fx(xt) * self.fxi(xit)


@dataclass(frozen=True)
class RhoValues:
    value: np.ndarray
    dxi: np.ndarray


def _x_key(tf: BumpTestFunction):
    return tf.y, tf.r_x


def _xi_key(tf: BumpTestFunction):
    return tf.eta, tf.r_xi


def _shared(tfs: Sequence[BumpTestFunction], key, make) -> list:
    """[make(tf) for tf in tfs], with make called once per distinct key(tf)
    and its result shared by every test function with that key."""
    memo = {}
    for tf in tfs:
        if key(tf) not in memo:
            memo[key(tf)] = make(tf)
    return [memo[key(tf)] for tf in tfs]


def _shift(cs: CoefficientSet, xi, t, z_t):
    """Characteristic displacement b(xi) t + gamma(xi) z_t."""
    return np.asarray(cs.b(xi)) * t + np.asarray(cs.gamma(xi)) * z_t


def eval_rho(tf: BumpTestFunction, cs: CoefficientSet, xi, t, x, z_t) -> RhoValues:
    """Transported test function rho0(x - y - b(xi) t - gamma(xi) z_t,
    xi - eta) with its xi partial derivative, which chains through the
    exact b', gamma'.  Every argument broadcasts, so t
    and z_t may be columns with one row per time."""
    xi = np.asarray(xi, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    shift = _shift(cs, xi, t, z_t)
    xt = x - tf.y - shift
    xit = xi - tf.eta
    d_shift = np.asarray(cs.b_prime(xi)) * t + np.asarray(cs.gamma_prime(xi)) * z_t
    fx = tf.fx(xt)
    fxi = tf.fxi(xit)
    return RhoValues(
        value=fx * fxi,
        dxi=tf.fx.d1(xt) * (-d_shift) * fxi + fx * tf.fxi.d1(xit),
    )


def _grid_sx(values: np.ndarray, dx: float, cs: CoefficientSet) -> np.ndarray:
    """d/dx of S(u(x)) along the last axis of `values`, one state or a stack
    of them on cells of width dx: central differences inside, one-sided at
    the ends, in one transform call."""
    su = cs.eval_transform("S", np.clip(values, 0.0, 1.0))
    return np.gradient(su, dx, axis=-1)


def chain_rule_forms(u: GridFunction, cs: CoefficientSet, tfs: Sequence[BumpTestFunction],
                     t: float, w_t: float) -> list[tuple[float, float]]:
    """For each test function rho of the family `tfs`, in order, the two
    sides (lhs, rhs) of the chain rule:

      lhs = int int chi(xi, u) sigma(xi) rho_x dx dxi
          = -int_0^1 sigma(xi) rho0(q(xi) - y - b(xi) t - gamma(xi) w_t, xi - eta) dxi
      rhs = -int S(u)_x rho(u(t,x), t, x) dx

    both over the whole line.  lhs is in layer-cake form on the xi rule
    (`_kinetic_rule`); rhs is taken on the cells and, where u rises at the
    domain's ends, on the same rule (`_x_side`), where S(u)_x dx is
    sigma(xi) dxi at x = q(xi).  b, gamma and sigma are evaluated once per
    call on each, and each bump factor once per distinct centre and radius.
    """
    nodes, weights, q = _kinetic_rule(u)
    shift = _shift(cs, nodes, t, w_t)
    w_sig = -weights * np.asarray(cs.sigma(nodes))
    fx = _shared(tfs, _x_key, lambda tf: tf.fx((q - tf.y) - shift))
    fxi = _shared(tfs, _xi_key, lambda tf: tf.fxi(nodes - tf.eta))
    terms = [w_sig * (a * c) for a, c in zip(fx, fxi)]

    x = u.centers()
    uv = np.clip(u.values, 0.0, 1.0)
    minus_sx = -_grid_sx(u.values, u.dx, cs)
    shift = _shift(cs, uv, t, w_t)
    fx = _shared(tfs, _x_key, lambda tf: tf.fx((x - tf.y) - shift))
    fxi = _shared(tfs, _xi_key, lambda tf: tf.fxi(uv - tf.eta))
    return [(float(np.sum(terms_tf)), _x_side(u, minus_sx * (a * c), nodes, terms_tf))
            for a, c, terms_tf in zip(fx, fxi, terms)]


def chain_rule_residual(u: GridFunction, cs: CoefficientSet, tfs: Sequence[BumpTestFunction],
                        t: float, w_t: float) -> list[float]:
    """|lhs - rhs| of the chain rule at one time, per test function in order."""
    return [abs(lhs - rhs) for lhs, rhs in chain_rule_forms(u, cs, tfs, t, w_t)]


def coarea_check(u: GridFunction, cs: CoefficientSet, g) -> float:
    """|int g(x, u) gamma(u) u_x dx - int_0^1 g(q(xi), xi) gamma(xi) dxi|,
    both over the whole line: the first on the cells and, where u rises at
    the domain's ends, on the xi rule (`_x_side`), the second on the xi
    rule (`_kinetic_rule`)."""
    nodes, weights, q = _kinetic_rule(u)
    terms = weights * np.asarray(g(q, nodes)) * np.asarray(cs.gamma(nodes))
    centers = u.centers()
    uv = np.clip(u.values, 0.0, 1.0)
    ux = np.gradient(u.values, u.dx)
    lhs = _x_side(u, np.asarray(g(centers, uv)) * np.asarray(cs.gamma(uv)) * ux, nodes, terms)
    return abs(lhs - float(np.sum(terms)))


def dissipation_measure(sol: SpdeSolution, cs: CoefficientSet) -> tuple[np.ndarray, np.ndarray]:
    """The discrete parabolic dissipation measure of `sol` as two
    (snapshots, cells) arrays (xi, masses): at snapshot k and cell j the
    mass (1/2)(S(u)_x)^2 dx dt sits at xi = u(t_k, x_j) clipped to
    [0, 1].  The snapshot times must be the nodes of a uniform grid
    (`grid_indices`).  S is evaluated in one call on the stacked snapshots,
    bit for bit the values of one call per snapshot."""
    times = np.asarray(sol.times)
    if times.size < 2:
        raise ValueError("need at least two snapshots")
    try:
        grid_indices(times, np.linspace(times[0], times[-1], times.size), "uniform grid time")
    except ValueError:
        raise ValueError("snapshots must be on a uniform time grid") from None
    dt = float(times[1] - times[0])
    dx = sol.snapshots[0].dx
    values = np.stack([snap.values for snap in sol.snapshots])
    sx = _grid_sx(values, dx, cs)
    return np.clip(values, 0.0, 1.0), 0.5 * sx * sx * dx * dt


def _restrict(sol: SpdeSolution, s: float, t: float):
    """The snapshots from s to t (`SpdeSolution.snapshot_index`) and W at
    each of their times."""
    i, j = (int(sol.snapshot_index(r, name)) for name, r in (("s", s), ("t", t)))
    if not i < j:
        raise ValueError("s and t must be snapshot times with snapshots between them")
    sub = SpdeSolution(sol.times[i:j + 1], sol.snapshots[i:j + 1], sol.path)
    return sub, sol.path.values[grid_indices(sol.path.t_grid, sub.times, "snapshot time")]


def _entropy_terms(snap: GridFunction, r: float, w_r: float, cs: CoefficientSet,
                   tfs: Sequence[BumpTestFunction], boundary: bool):
    """Per test function, int int chi sigma^2 rho_xx at one snapshot and,
    if `boundary`, int int chi rho (else None), in layer-cake form on the
    xi rule (`_kinetic_rule`): the x-integrals from q(xi) to inf of fx''
    and fx are -fx'(q - y - shift) and `tail_integral`(q - y - shift).
    The rule, shift and sigma^2 are built once, each bump factor once per
    distinct centre and radius."""
    nodes, weights, q = _kinetic_rule(snap)
    shift = _shift(cs, nodes, r, w_r)
    sig2 = np.asarray(cs.sigma(nodes)) ** 2
    fxi = _shared(tfs, _xi_key, lambda tf: tf.fxi(nodes - tf.eta))
    fx_d1 = _shared(tfs, _x_key, lambda tf: tf.fx.d1((q - tf.y) - shift))
    diffusion = [float(-np.sum(weights * (sig2 * (a * c)))) for a, c in zip(fx_d1, fxi)]
    if not boundary:
        return diffusion, None
    tails = _shared(tfs, _x_key, lambda tf: tf.fx.tail_integral((q - tf.y) - shift))
    return diffusion, [float(np.sum(weights * (a * c))) for a, c in zip(tails, fxi)]


def entropy_identity_residual(sol: SpdeSolution, cs: CoefficientSet,
                              tfs: Sequence[BumpTestFunction], s: float, t: float) -> list[float]:
    """Signed defect of the pathwise entropy identity over [s, t], for each
    test function rho of the family `tfs`, in order:

        -[int int chi rho]_s^t + 1/2 int_s^t int int chi sigma^2 rho_xx
        - int int d_xi rho dn

    with n from dissipation_measure and the entropy defect measure m set
    to zero; each residual therefore estimates the pairing against m.

    The snapshot terms (`_entropy_terms`) are computed once per snapshot.
    n is built once per call, here; for each rho, d_xi rho is evaluated in
    one call on all of n's (snapshots, cells) points, and the products with
    the masses are summed per snapshot and the row sums added in snapshot
    order.
    """
    sub, w = _restrict(sol, s, t)
    times = sub.times
    last = len(times) - 1
    diffusion = np.empty((len(tfs), times.size))
    ends = []
    for k, snap in enumerate(sub.snapshots):
        diffusion[:, k], bnd = _entropy_terms(snap, float(times[k]), float(w[k]), cs, tfs, k in (0, last))
        if bnd is not None:
            ends.append(bnd)

    xi, masses = dissipation_measure(sub, cs)
    x = sub.snapshots[0].centers()
    out = []
    for tf, diff_vals, bnd_s, bnd_t in zip(tfs, diffusion, *ends):
        n_pair = 0.0
        for row, mass in zip(eval_rho(tf, cs, xi, times[:, None], x, w[:, None]).dxi, masses):
            n_pair += float(np.sum(row * mass))
        out.append(-(bnd_t - bnd_s) + 0.5 * float(np.trapezoid(diff_vals, times)) - n_pair)
    return out


def weak_form_residual(sol: SpdeSolution, cs: CoefficientSet, fs: Sequence[Bump1D],
                       s: float, t: float) -> list[float]:
    """Residual of the weak (distributional) form over [s, t] against each
    compactly supported f of the family `fs`, in order: time integrals by
    trapezoid on the snapshot grid, the noise integral as a left-endpoint
    Ito sum.  B, Sigma + Gamma and G are evaluated for the whole family in
    one call each on the stacked snapshots, bit for bit the values of one
    call per snapshot, G only where the Ito sum reads it: not at t."""
    first = sol.snapshots[0]
    for f in fs:
        lo, hi = f.support()
        if lo <= first.x_min or hi >= first.x_max:
            raise ValueError("test function support must lie inside the domain")
    sub, w = _restrict(sol, s, t)
    centers = first.centers()
    dx = first.dx
    derivs = [(f.d1(centers), f.d2(centers)) for f in fs]

    times = sub.times
    dw = np.diff(w)
    uv = np.clip(np.stack([snap.values for snap in sub.snapshots]), 0.0, 1.0)
    Bu = cs.eval_transform("B", uv)
    Du = cs.eval_transform("Sigma", uv) + cs.eval_transform("Gamma", uv)
    Gu = cs.eval_transform("G", uv[:-1])
    # per snapshot, and per left endpoint of the Ito sum; per f
    drift = np.array([[float(np.sum(b_row * f1 + d_row * f2) * dx) for f1, f2 in derivs]
                      for b_row, d_row in zip(Bu, Du)])
    noise_coef = np.array([[float(np.sum(g_row * f1) * dx) for f1, _ in derivs] for g_row in Gu])

    u_s, u_t = sub.snapshots[0].values, sub.snapshots[-1].values
    out = []
    for f, drift_f, noise_f in zip(fs, drift.T, noise_coef.T):
        fv = f(centers)
        drift_int = float(np.trapezoid(drift_f, times))
        noise_sum = float(np.sum(noise_f * dw))
        pairing_s = float(np.sum(u_s * fv) * dx)
        pairing_t = float(np.sum(u_t * fv) * dx)
        out.append(abs(pairing_t - pairing_s - drift_int - noise_sum))
    return out
