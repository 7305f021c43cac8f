"""Quadrature rules on intervals and checked composite sums.

build_grid gives the n-node grids the Nystrom spectrum is solved on: the
Gauss-Legendre rule or the midpoint rule mapped to (0, lam), as a Grid that
refuses nodes and weights that are not mirror-symmetric about lam/2. The
Gauss-Legendre rules are built in O(n): Newton's method for n <= 100 and
Bogaert's asymptotic formulas above, on the zeros of J0 and the values of J1
there from his FastGL tables and asymptotic series.

graded_edges and panel_nodes lay composite Gauss-Legendre rules on panels
that double in width away from a refined endpoint, for the cross block of the
quasi-norm diagnostic and the bulk term. checked_panel_sum sums a function by the 32-node rule
on each panel and checks the sum against the 16-node one on the same panels;
the bulk term, the slope constant and the cross block's box-tail gate are
such sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError


class GridRule(str, Enum):
    GAUSS_LEGENDRE = "gauss_legendre"
    MIDPOINT = "midpoint"


@dataclass(frozen=True)
class Grid:
    """Quadrature nodes/weights on (0, lam), mirror-symmetric about lam/2."""

    nodes: np.ndarray
    weights: np.ndarray
    rule: GridRule
    lam: float

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(nodes <= 0) or np.any(nodes >= self.lam):
            raise ValueError("nodes must lie strictly inside (0, lam)")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - self.lam) > 1e-12 * self.lam:
            raise ValueError("weights must sum to lam")
        mirror_tol = 8.0 * np.finfo(float).eps * self.lam
        if (np.abs(nodes + nodes[::-1] - self.lam).max() > mirror_tol
                or np.abs(weights - weights[::-1]).max() > mirror_tol):
            raise ValueError("nodes and weights must be mirror-symmetric about lam/2")

    @property
    def size(self) -> int:
        return self.nodes.size


# Bogaert's interpolants in x = alpha^2 (highest degree first): the node
# corrections F1, F2, F3 and the weight corrections W1, W2, W3
_BOGAERT_F = (
    (-1.29052996274280508473467968379e-12, 2.40724685864330121825976175184e-10,
     -3.13148654635992041468855740012e-8, 0.275573168962061235623801563453e-5,
     -0.148809523713909147898955880165e-3, 0.416666666665193394525296923981e-2,
     -0.416666666666662959639712457549e-1),
    (2.20639421781871003734786884322e-9, -7.53036771373769326811030753538e-8,
     0.161969259453836261731700382098e-5, -0.253300326008232025914059965302e-4,
     0.282116886057560434805998583817e-3, -0.209022248387852902722635654229e-2,
     0.815972221772932265640401128517e-2),
    (-2.97058225375526229899781956673e-8, 5.55845330223796209655886325712e-7,
     -0.567797841356833081642185432056e-5, 0.418498100329504574443885193835e-4,
     -0.251395293283965914823026348764e-3, 0.128654198542845137196151147483e-2,
     -0.416012165620204364833694266818e-2),
)
_BOGAERT_W = (
    (-2.20902861044616638398573427475e-14, 2.30365726860377376873232578871e-12,
     -1.75257700735423807659851042318e-10, 1.03756066927916795821098009353e-8,
     -4.63968647553221331251529631098e-7, 0.149644593625028648361395938176e-4,
     -0.326278659594412170300449074873e-3, 0.436507936507598105249726413120e-2,
     -0.305555555555553028279487898503e-1, 0.833333333333333302184063103900e-1),
    (3.63117412152654783455929483029e-12, 7.67643545069893130779501844323e-11,
     -7.12912857233642220650643150625e-9, 2.11483880685947151466370130277e-7,
     -0.381817918680045468483009307090e-5, 0.465969530694968391417927388162e-4,
     -0.407297185611335764191683161117e-3, 0.268959435694729660779984493795e-2,
     -0.111111111111214923138249347172e-1),
    (2.01826791256703301806643264922e-9, -4.38647122520206649251063212545e-8,
     5.08898347288671653137451093208e-7, -0.397933316519135275712977531366e-5,
     0.200559326396458326778521795392e-4, -0.422888059282921161626339411388e-4,
     -0.105646050254076140548678457002e-3, -0.947969308958577323145923317955e-4,
     0.656966489926484797412985260842e-2),
)
# rules with more nodes than this come from the asymptotic formulas
_NEWTON_MAX_NODES = 100
# FastGL's Bessel data: the zeros j_{0,k} of J0 for k <= 20 and J1(j_{0,k})^2
# for k <= 21, then McMahon's expansion of j_{0,k} in r^2, r = 1/(pi (k - 1/4)),
# and the series of J1(j_{0,k})^2 in x^2, x = 1/(k - 1/4) (highest degree first)
_J0_ZEROS = (
    2.40482555769577276862163187933, 5.52007811028631064959660411281,
    8.65372791291101221695419871266, 11.7915344390142816137430449119,
    14.9309177084877859477625939974, 18.0710639679109225431478829756,
    21.2116366298792589590783933505, 24.3524715307493027370579447632,
    27.4934791320402547958772882346, 30.6346064684319751175495789269,
    33.7758202135735686842385463467, 36.9170983536640439797694930633,
    40.0584257646282392947993073740, 43.1997917131767303575240727287,
    46.3411883716618140186857888791, 49.4826098973978171736027615332,
    52.6240518411149960292512853804, 55.7655107550199793116834927735,
    58.9069839260809421328344066346, 62.0484691902271698828525002647,
)
_J1_SQUARED = (
    0.269514123941916926139021992910, 0.115780138582203695807812836182,
    0.0736863511364082151406476811985, 0.0540375731981162820417749182759,
    0.0426614290172430912655106063497, 0.0352421034909961013587473033648,
    0.0300210701030546726750888157688, 0.0261473914953080885904584675399,
    0.0231591218246913922652676382178, 0.0207838291222678576039808057296,
    0.0188504506693176678161056800213, 0.0172461575696650082995240053542,
    0.0158935181059235978027065594287, 0.0147376260964721895895742982591,
    0.0137384651453871179182880484135, 0.0128661817376151328791406637229,
    0.0120980515486267975471075438497, 0.0114164712244916085168627222987,
    0.0108075927911802040115547286831, 0.0102603729262807628110423992789,
    0.00976589713979105054059846736697,
)
_MCMAHON = (
    5.09225462402226769498681286758e7, -8.49353580299148769921876983660e5,
    18690.4765282320653831636345064, -567.644412135183381139802038240,
    25.3364147973439050099206349206, -1.82443876720610119047619047619,
    0.246028645833333333333333333333, -0.807291666666666666666666666667e-1, 0.125,
)
_J1_SQUARED_SERIES = (
    0.185395398206345628711318848386, -0.266837393702323757700998557826e-1,
    0.496101423268883102872271417616e-2, -0.123632349727175414724737657367e-2,
    0.433710719130746277915572905025e-3, -0.228969902772111653038747229723e-3,
    0.198924364245969295201137972743e-3, -0.303380429711290253026202643516e-3,
    0.0, 0.202642367284675542887042656181,
)


def _bessel_j0_data(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first count zeros j_{0,k} of J0 and J1(j_{0,k})^2, from FastGL's
    tables and, past them, its asymptotic series (within 2 ulp of 30-digit
    values)."""
    k = np.arange(1.0, count + 1)
    zeros = np.empty(count)
    j1_squared = np.empty(count)
    zeros[:len(_J0_ZEROS)] = _J0_ZEROS[:count]
    j1_squared[:len(_J1_SQUARED)] = _J1_SQUARED[:count]
    beta = np.pi * (k[len(_J0_ZEROS):] - 0.25)
    r = 1.0 / beta
    zeros[len(_J0_ZEROS):] = beta + r * np.polyval(_MCMAHON, r * r)
    x = 1.0 / (k[len(_J1_SQUARED):] - 0.25)
    j1_squared[len(_J1_SQUARED):] = x * np.polyval(_J1_SQUARED_SERIES, x * x)
    return zeros, j1_squared


def _bogaert_half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_1 > ... > x_h >= 0 (h = ceil(n/2)) and their weights, n > 100.

    I. Bogaert, Iteration-free computation of Gauss-Legendre quadrature
    nodes and weights, SIAM J. Sci. Comput. 36 (2014) A1008: the asymptotic
    series in alpha_k = j_{0,k} / (n + 1/2), with the Chebyshev interpolants
    and the Bessel data of his FastGL code (GLPairS, besseljzero and
    besselj1squared). Near machine precision for n > 100.
    """
    nu, j1_squared = _bessel_j0_data((n + 1) // 2)
    rho = 1.0 / (n + 0.5)
    alpha = rho * nu
    a2 = alpha * alpha
    f1, f2, f3 = (np.polyval(c, a2) for c in _BOGAERT_F)
    w1, w2, w3 = (np.polyval(c, a2) for c in _BOGAERT_W)
    nu_sin = nu / np.sin(alpha)
    v = rho * rho * nu_sin
    v2 = v * v
    theta = rho * (nu + alpha * v * (f1 + v2 * (f2 + v2 * f3)))
    weights = 2.0 * rho / (j1_squared * nu_sin * (1.0 + v2 * (w1 + v2 * (w2 + v2 * w3))))
    return np.cos(theta), weights


def _newton_half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_1 > ... > x_h >= 0 (h = ceil(n/2)) and their weights, n <= 100.

    Three Newton steps on P_n from Tricomi's initial guess
    (1 - (n - 1) / (8 n^3)) cos(pi (4k - 1) / (4n + 2)), with P_n and P_n'
    from the three-term recurrence, then w = 2 / ((1 - x^2) P_n'(x)^2).
    """
    k = np.arange(1.0, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))

    def newton_step():
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        return p1 / dp, dp

    for _ in range(3):
        x = x - newton_step()[0]
    step, dp = newton_step()
    s = (1.0 - x) * (1.0 + x)
    # d ln w / dx = -2x / (1 - x^2) at a root: correct w to first order for
    # the rounding left in x, which would otherwise cost 1e-13 at x ~ 1
    return x, 2.0 / (s * dp * dp) * (1.0 + 2.0 * x * step / s)


@functools.lru_cache(maxsize=64)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on (-1, 1), computed once per n.

    One half comes from Newton's method (n <= 100) or Bogaert's asymptotic
    formulas (n > 100), in O(n) for large n; the other is its mirror image.
    For odd n the centre node is set to exactly 0, and the weights are
    normalized to sum to 2.
    """
    half_x, half_w = (_newton_half if n <= _NEWTON_MAX_NODES else _bogaert_half)(n)
    h = half_x.size
    x = np.empty(n)
    w = np.empty(n)
    x[:h], x[n - h:] = -half_x, half_x[::-1]
    w[:h], w[n - h:] = half_w, half_w[::-1]
    if n % 2:
        x[n // 2] = 0.0
    w *= 2.0 / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def build_grid(n: int, lam: float, rule: GridRule = GridRule.GAUSS_LEGENDRE) -> Grid:
    """Gauss-Legendre or midpoint rule with n nodes on (0, lam)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    rule = GridRule(rule)
    if rule is GridRule.GAUSS_LEGENDRE:
        x, w = _legendre_rule(n)
        nodes = 0.5 * lam * (x + 1.0)
        weights = 0.5 * lam * w
    else:
        h = lam / n
        nodes = h * (np.arange(n) + 0.5)
        weights = np.full(n, h)
    return Grid(nodes=nodes, weights=weights, rule=rule, lam=lam)


def graded_edges(length: float, fine: float) -> np.ndarray:
    """Dyadic panel edges from a refined endpoint at 0 out to `length`."""
    edges = [0.0, min(fine, length)]
    while edges[-1] < length:
        edges.append(min(2.0 * edges[-1], length))
    return np.asarray(edges)


def panel_nodes(edges: np.ndarray, per: int):
    """A per-node Gauss-Legendre rule on each panel between edges, in order."""
    nodes, weights = _legendre_rule(per)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def checked_panel_sum(f, edges: np.ndarray, rel_tol: float, abs_tol: float, what: str) -> float:
    """32-node Gauss-Legendre sum of f on the panels between edges; ConvergenceError
    naming `what` if the 16-node sum differs by more than rel_tol |value| + abs_tol
    and than the least normal float (subnormal sums keep no relative accuracy), or
    if either sum is NaN."""
    x_fine, w_fine = panel_nodes(edges, 32)
    x_coarse, w_coarse = panel_nodes(edges, 16)
    values = f(np.concatenate([x_fine, x_coarse]))
    value = float(w_fine @ values[:x_fine.size])
    coarse = float(w_coarse @ values[x_fine.size:])
    if not abs(value - coarse) <= max(rel_tol * abs(value) + abs_tol, np.finfo(float).tiny):
        raise ConvergenceError(f"{what} did not reach rel_tol={rel_tol}: value={value}, "
                               f"16-node value={coarse}")
    return value
