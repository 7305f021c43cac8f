"""Nystrom discretization of the truncated kernel operator.

The interval operator (restrict, apply translation-invariant kernel,
restrict again) is replaced by the weight-symmetrized collocation matrix
sqrt(w_i) K(x_i - x_j) sqrt(w_j) on a quadrature grid, which is Hermitian
by construction and has the same eigenvalues as the plain collocation
matrix w_j K(x_i - x_j).

One exact reduction gives the spectrum from real N x N blocks. With the
weighted blocks K11 W = A + iB, K12 W = C and J the node reversal, a grid
mirror-symmetric about lam/2 (Grid refuses any other) gives J A J = A,
J B J = -B and J C J = C. The 2N x 2N matrix then acts on the spaces spanned
by (v, +-Jv) as the centro-Hermitian K11 W +- CJ, which the unitary
(I - iJ)/sqrt(2) turns into the real symmetric S+- = A - JB +- CJ (A. Lee,
Centrohermitian and skew-centrohermitian matrices, LAA 29 (1980); A. Cantoni
and P. Butler, Eigenvalues and eigenvectors of symmetric centrosymmetric
matrices, LAA 13 (1976)). At mass 0, C = 0 and S+ = S-. The test suite
checks the reduction against the direct 2N x 2N complex assembly.

Only the eigensolve costs O(N^3). A, B and C depend on the separation
x_i - x_j alone (A and C even in it, B odd), and S+- = A + H+- with
H+- J = B +- C. On the mirror grid, transposition and the mirror
(i, j) -> (N-1-i, N-1-j) each map the set of separations onto itself, so the
kernel is evaluated only on the fundamental domain D = {i <= j <= N-1-i},
about N^2/4 separations, in strips of about _FILL_ELEMENTS of them, and each
value is added into its four images in A and in H+- J. One (N + 1) x N
buffer holds S+ on and above the diagonal of its first N rows and S- on and
below the diagonal of its last N rows, two disjoint triangles. LAPACK's
two-stage reduction (dsytrd_sy2sb to a band, dsytrd_sb2st to tridiagonal
form, then dsterf) reads and overwrites only the triangle it is told to, so
both are solved in place. S+ = S- at mass 0, so there S+ alone is filled,
and the lower triangle is free: given a massless partner, the spectrum a
caller will ask for next on the same grid (sweep's next epsilon), it holds
the partner's S+, which the images of S- give at C = 0, and both spectra are
cached. Two triangles are solved at once, a helper thread taking the lower
one, where each solve runs on one BLAS thread and the process may use two
CPUs for each process solving spectra (_solve_threads); elsewhere the lower
follows the upper. Each triangle is solved on one thread either way, and a
partner is packed whatever the thread count, so the eigenvalues keep their
bits; a partner's may differ from its own solve in the last digits.
The solver is LAPACKE dsyevd_2stage from the OpenBLAS that numpy bundles,
called through ctypes on the library numpy.linalg has already loaded. It
reduces the matrix to a band with BLAS-3 and then chases the bulges down to
tridiagonal form (C. Bischof, B. Lang and X. Sun, ACM TOMS 26 (2000) 581;
A. Haidar, H. Ltaief and J. Dongarra, SC'11); its eigenvalues came out the
same bit for bit on one and on two OpenBLAS threads, which dsyevd's did not.
The buffer is the only large array. It is a private anonymous mapping on
4 KiB base pages, which read as zero until written, so only the pages the
fill writes become resident: about half of its 8 N (N + 1) bytes for a
massless spectrum solved alone, all of them where both triangles are filled.
The mapping goes back to the OS when the spectrum's last view dies, so no
buffer outlives its rung in the heap. One spectrum thus peaks at the imports
plus the buffer's written pages, LAPACK's workspace of about 105 N doubles
for each triangle solved at once, and the strip's temporaries, a fixed
budget of a few MB at every N; where numpy exports no LAPACKE,
np.linalg.eigvalsh solves a copy, adding 8 N^2 bytes. check_spectrum_memory
compares the whole buffers, written or not (spectrum_buffer_bytes, without
the O(N) workspaces), with the physical memory. The Gauss-Legendre rules
are built in O(n): Newton's method for n <= 100 and Bogaert's asymptotic
formulas above, on the zeros of J0 and the values of J1 there from his
FastGL tables and asymptotic series.

The module also builds, on a graded grid, the cross block (inside x outside)
of the damped scalar symbol exp(-eps omega(k)) for the quasi-norm growth
diagnostic. Its kernel, F0 / 2pi = 2 Re K11, comes from kernel_blocks, so
the closed form is written only in kernel_eval. min_box_half_width checks the
box, by the bulk term's checked panel sums of k^2, and cross_block_nodes the
node budget, both apart from the assembly.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import math
import mmap
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dirac_symbols import PhysicalParams
from .errors import ConvergenceError
from .kernel_eval import kernel_blocks

DEFAULT_TOL_DISC = 1e-6
BOX_TAIL_TOL = 1e-6
# the box tail's last panel edge, L 2^60, stays 16 times below the largest
# float, so the panel midpoints and 2 pi u in the kernel remain finite
MAX_BOX_HALF_WIDTH = np.finfo(float).max / 2.0**64
# separations evaluated per strip while S+- is filled: max(1, _FILL_ELEMENTS // N)
# rows, so the strip's temporaries take the same few MB at every N
_FILL_ELEMENTS = 2**15


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


def _openblas_routine(name: str, restype, *argtypes):
    """A routine of the OpenBLAS bundled with numpy, through the library
    numpy.linalg has already mapped; None where numpy exports no such symbol."""
    try:
        routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name)
    except (AttributeError, OSError):
        return None
    routine.restype = restype
    routine.argtypes = argtypes
    return routine


# LAPACKE_dsyevd_2stage with 64-bit integers: (layout, jobz, uplo, n, a, lda, w) -> info
_DSYEVD = _openblas_routine("scipy_LAPACKE_dsyevd_2stage64_", ctypes.c_int64, ctypes.c_int,
                            ctypes.c_char, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p,
                            ctypes.c_int64, ctypes.c_void_p)
_BLAS_THREADS = _openblas_routine("scipy_openblas_get_num_threads64_", ctypes.c_int)
_LAPACK_COL_MAJOR = 102


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that runs the in-place solve; None on the fallback."""
    if _DSYEVD is None or _BLAS_THREADS is None:
        return None
    return int(_BLAS_THREADS())


# processes solving spectra side by side, this one included: 1 unless
# share_cpus, sweep's pool initializer, says otherwise
_processes = 1


def share_cpus(processes: int) -> None:
    """Record that this process is one of `processes` that solve spectra at once."""
    global _processes
    _processes = processes


def _solve_threads() -> int:
    """Threads for the two triangles of a spectrum buffer: 2 where each solve
    runs on one BLAS thread and this process's share of the CPUs it may use
    holds two, else 1. A multithreaded OpenBLAS shares one thread pool among
    its callers, and the fallback would need a second N x N copy."""
    if blas_threads() != 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return 2 if 2 * _processes <= len(os.sched_getaffinity(0)) else 1


def spectrum_buffer_bytes(n: int) -> int:
    """Bytes of the (N + 1) x N buffer one spectrum holds, plus the N x N copy
    np.linalg.eigvalsh makes when the fallback solves. The buffer also holds
    a partner's spectrum at mass 0. All of it is counted, although only the
    pages the fill writes become resident (about half at mass 0 without a
    partner). LAPACK's O(N) workspaces (about 105 N doubles each, two where
    both triangles are solved at once) are not counted."""
    matrices = 1 if _DSYEVD is not None else 2
    return 8 * n * (matrices * n + 1)


def physical_memory_bytes() -> int:
    """Physical memory of the machine, from the page count and page size."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_spectrum_memory(n: int) -> int:
    """How many spectra at grid size n fit in physical memory at once;
    ValueError if not even one spectrum's eigensolver buffers fit."""
    need = spectrum_buffer_bytes(n)
    total = physical_memory_bytes()
    if need > total:
        # the largest k with spectrum_buffer_bytes(k) <= total; 8 k^2 > total past the range
        sizes = range(math.isqrt(total // 8) + 2)
        fits = bisect.bisect_right(sizes, total, key=spectrum_buffer_bytes) - 1
        raise ValueError(
            f"grid size {n} needs {need:.3g} bytes of eigensolver buffers, "
            f"more than the {total:.3g} bytes of physical memory; "
            f"the largest grid-size cap that fits is {fits}"
        )
    return total // need


def _eigvalsh_in_place(buf: np.ndarray, upper: bool) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix in one triangle of the
    C-ordered buf: the upper one (with the diagonal) if upper, else the lower.

    LAPACKE dsyevd_2stage (eigenvalues only) reads buf's memory in
    column-major order, as buf.T, whose lower triangle is buf's upper one.
    dsytrd_sy2sb and dsytrd_sb2st, then dsterf, read and overwrite only that
    triangle and the diagonal; the other strict triangle survives the solve
    bit for bit. Where numpy exports no LAPACKE, the fallback
    np.linalg.eigvalsh solves a copy and leaves buf as it was.
    """
    n = buf.shape[0]
    if (buf.shape != (n, n) or buf.dtype != np.float64 or not buf.flags.c_contiguous
            or not buf.flags.writeable):
        raise ValueError("buf must be a square, writeable, C-contiguous float64 array")
    if _DSYEVD is None:
        return np.linalg.eigvalsh(buf, UPLO="U" if upper else "L")
    eigenvalues = np.empty(n)
    info = _DSYEVD(_LAPACK_COL_MAJOR, b"N", b"L" if upper else b"U", n, buf.ctypes.data, n,
                   eigenvalues.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACKE dsyevd_2stage failed with info = {info}")
    return eigenvalues


def _zeroed_buffer(n: int) -> np.ndarray:
    """An (n + 1) x n float64 array on a private anonymous mapping of its own.

    Its pages read as zero and become resident only when written, one 4 KiB
    base page at a time: numpy advises huge pages for its large arrays, which
    would make untouched stretches resident too. The mapping is unmapped when
    its last view dies, so unlike a freed heap block it leaves nothing behind.
    """
    mapping = mmap.mmap(-1, 8 * n * (n + 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        mapping.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(mapping).reshape(n + 1, n)


def _strip_terms(params: PhysicalParams, x: np.ndarray, sw: np.ndarray, a: int, b: int):
    """A, B + C and B - C of params on the fill strip of rows a:b and columns
    a:N-a (the nodes x, the square roots sw of the weights), zero off D and
    with weight 1/2 where two images coincide (A at j = i', B +- C at j = i)."""
    n = x.size
    rows, cols = slice(a, b), slice(a, n - a)
    T11, T12 = kernel_blocks(params, x[rows, None] - x[None, cols])
    i = np.arange(a, b)[:, None]
    j = np.arange(a, n - a)[None, :]
    k = np.arange(b - a)
    anti = n - 1 - 2 * a - k  # strip columns k and anti hold j = i and j = i'
    W = sw[rows, None] * sw[None, cols] * ((j >= i) & (j <= n - 1 - i))
    A = T11.real * W
    A[k, anti] *= 0.5
    W[k, k] *= 0.5
    P = T11.imag * W  # B + C
    if params.mass == 0.0:
        return A, P, P
    C = T12 * W
    Q = P - C  # B - C
    P += C
    return A, P, Q


def _spectrum(params: PhysicalParams, grid: Grid, x_offset: float,
              partner: PhysicalParams | None = None) -> tuple[np.ndarray, ...]:
    """Eigenvalues of S+- on the grid: a 1-tuple, or with a massless partner
    at mass 0, (this spectrum, the partner's) from the two triangles.

    The kernel is evaluated on row strips of D = {i <= j <= N-1-i}. With
    i' = N-1-i, a value at (i, j) of A goes to (i, j) and (j', i') of S+ and
    to (j, i) and (i', j') of S-; one of B +- C goes to (i, j') and (j, i')
    of S+ and to (i', j) and (j', i) of S-, negated where B is reflected.
    Where two images coincide in one matrix (A on the antidiagonal j = i',
    B +- C on the diagonal j = i) each carries weight 1/2. S+ fills the upper
    triangle of buf[:N] and S- the lower one of buf[1:], each with its own
    diagonal. buf comes from _zeroed_buffer, so a triangle nothing writes
    never becomes resident, and strips of max(1, _FILL_ELEMENTS // N) rows
    keep the rest to a fixed budget. At mass 0 the lower triangle is free:
    given a partner, each strip also evaluates the partner's kernel and
    writes it there through the images of S-, which at C = 0 give the
    partner's S+. The fill and the solve of the upper triangle run on the
    calling thread; the lower one is solved at the same time on a helper
    thread where _solve_threads gives 2, after the upper one otherwise.
    """
    x = grid.nodes + x_offset
    sw = np.sqrt(grid.weights)
    n = x.size
    h = (n + 1) // 2
    # whose S- fills the lower triangle: S- itself, the partner's S+, or none
    lower = params if params.mass != 0.0 else partner
    buf = _zeroed_buffer(n)
    plus = buf[:n]   # S+ on and above its diagonal
    minus = buf[1:]  # S- on and below its diagonal
    plus_mirror = plus[::-1, ::-1]    # plus_mirror[i, j] = plus[i', j']
    right = plus[:, ::-1]             # right[i, j] = plus[i, j']
    minus_mirror = minus[::-1, ::-1]  # minus_mirror[i, j] = minus[i', j']
    down = minus[::-1, :]             # down[i, j] = minus[i', j]
    strip_rows = max(1, _FILL_ELEMENTS // n)
    for a in range(0, h, strip_rows):
        b = min(a + strip_rows, h)
        rows, cols = slice(a, b), slice(a, n - a)
        A, P, Q = _strip_terms(params, x, sw, a, b)
        # a transposed image is written as view[cols, rows] += X.T, which
        # numpy runs about 3x faster than view.T[rows, cols] += X
        plus[rows, cols] += A
        plus_mirror[cols, rows] += A.T
        right[rows, cols] += P
        right[cols, rows] -= Q.T
        if lower is None:
            continue
        if lower is not params:
            del A, P, Q  # not alive while the partner's strip is evaluated
            A, P, Q = _strip_terms(lower, x, sw, a, b)
        minus[cols, rows] += A.T
        minus_mirror[rows, cols] += A
        down[rows, cols] -= P
        down[cols, rows] += Q.T
    if lower is None:
        spectra = (np.repeat(_eigvalsh_in_place(plus, upper=True), 2),)
    else:
        if _solve_threads() == 2:
            # the with block joins the helper, so no thread writes to buf once
            # this returns or raises
            with ThreadPoolExecutor(1) as helper:
                lower_solve = helper.submit(_eigvalsh_in_place, minus, upper=False)
                try:
                    halves = _eigvalsh_in_place(plus, upper=True), lower_solve.result()
                finally:
                    # a failed future holds a traceback that holds this
                    # frame: dropping it breaks the cycle, so buf dies with
                    # the exception, not at the next garbage collection
                    del lower_solve
        else:
            halves = _eigvalsh_in_place(plus, upper=True), _eigvalsh_in_place(minus, upper=False)
        if lower is params:
            spectra = (np.sort(np.concatenate(halves)),)
        else:
            spectra = tuple(np.repeat(half, 2) for half in halves)
    for eigenvalues in spectra:
        eigenvalues.flags.writeable = False  # later rungs and other orders read it back
    return spectra


# spectra solved in this process, least recently used first; the lock keeps
# each lookup and each store whole where several threads ask for spectra
_SPECTRUM_CACHE_SIZE = 256
_spectra: OrderedDict = OrderedDict()
_spectra_lock = threading.Lock()


def clear_spectrum_cache() -> None:
    """Forget every cached spectrum."""
    with _spectra_lock:
        _spectra.clear()


def _cached_spectrum(params: PhysicalParams, grid: Grid, x_offset: float,
                     partner: PhysicalParams | None) -> np.ndarray:
    """_spectrum through the cache, keyed by the parameters, the grid's node
    and weight bytes and the offset. A miss at mass 0 also solves a massless
    partner's spectrum on the grid, unless that one is cached, and keeps both."""
    key = (params, grid.nodes.tobytes(), grid.weights.tobytes(), x_offset)
    partner_key = (partner, *key[1:])
    with _spectra_lock:
        if key in _spectra:
            _spectra.move_to_end(key)
            return _spectra[key]
        if (partner is None or params.mass != 0.0 or partner.mass != 0.0
                or partner_key in _spectra):
            partner = None
    spectra = _spectrum(params, grid, x_offset, partner)
    with _spectra_lock:
        _spectra[key] = spectra[0]
        if partner is not None:
            _spectra[partner_key] = spectra[1]
        while len(_spectra) > _SPECTRUM_CACHE_SIZE:
            _spectra.popitem(last=False)
    return spectra[0]


def validate_spectrum_range(eigenvalues: np.ndarray) -> None:
    """Raise ConvergenceError unless the spectrum lies in [-tol, 1 + tol]."""
    lo = float(eigenvalues.min())
    hi = float(eigenvalues.max())
    tol = DEFAULT_TOL_DISC
    if lo < -tol or hi > 1.0 + tol:
        raise ConvergenceError(
            f"spectrum [{lo:.3e}, {hi:.6f}] leaves [-{tol:.0e}, 1+{tol:.0e}]; "
            "the grid does not resolve the kernel at this epsilon"
        )


def operator_eigenvalues(
    params: PhysicalParams,
    grid: Grid,
    *,
    x_offset: float = 0.0,
    validate: bool = True,
    use_cache: bool = True,
    partner: PhysicalParams | None = None,
) -> np.ndarray:
    """All 2N eigenvalues (ascending) of the symmetrized Nystrom matrix.

    The spectra of the real mirror blocks S+- = A - JB +- CJ (module
    docstring); at mass 0, S+ = S- and one solve gives each eigenvalue twice.
    The kernel is evaluated on the fundamental domain D = {i <= j <= N-1-i}
    only, in strips of about _FILL_ELEMENTS separations; the rest of S+- are
    its images.
    Results are read-only and cached (the least recently used of more than
    256 are dropped) by the parameters, the grid's nodes and weights, and the
    offset. partner names the spectrum to be asked for next on this grid: where
    both masses are 0, the cache is on and neither spectrum is cached, the
    partner's is solved in the buffer's free triangle and cached unchecked, and
    elsewhere it is ignored. It does not change this spectrum's bits; the
    partner's may differ from its own solve in the last digits. ValueError if
    the grid is not on (0, params.lam).
    """
    if grid.lam != params.lam:
        raise ValueError(f"grid is on (0, {grid.lam}), but params.lam is {params.lam}")
    if use_cache:
        eigenvalues = _cached_spectrum(params, grid, x_offset, partner)
    else:
        eigenvalues = _spectrum(params, grid, x_offset)[0]
    if validate:
        validate_spectrum_range(eigenvalues)
    return eigenvalues


# ---------------------------------------------------------------------------
# Cross block of the damped scalar symbol (inside x outside an interval)
# ---------------------------------------------------------------------------


def _graded_edges(length: float, fine: float) -> np.ndarray:
    """Dyadic panel edges from a refined endpoint at 0 out to `length`."""
    edges = [0.0, min(fine, length)]
    while edges[-1] < length:
        edges.append(min(2.0 * edges[-1], length))
    return np.asarray(edges)


def _panel_nodes(edges: np.ndarray, per: int):
    """A per-node Gauss-Legendre rule on each panel between edges, in order."""
    nodes, weights = _legendre_rule(per)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def _checked_panel_sum(f, edges: np.ndarray, rel_tol: float, abs_tol: float, what: str) -> float:
    """32-node Gauss-Legendre sum of f on the panels between edges; ConvergenceError
    naming `what` if the 16-node sum differs by more than rel_tol |value| + abs_tol
    and than the least normal float (subnormal sums keep no relative accuracy)."""
    x_fine, w_fine = _panel_nodes(edges, 32)
    x_coarse, w_coarse = _panel_nodes(edges, 16)
    values = f(np.concatenate([x_fine, x_coarse]))
    value = float(w_fine @ values[:x_fine.size])
    coarse = float(w_coarse @ values[x_fine.size:])
    if abs(value - coarse) > max(rel_tol * abs(value) + abs_tol, np.finfo(float).tiny):
        raise ConvergenceError(f"{what} did not reach rel_tol={rel_tol}: value={value}, "
                               f"16-node value={coarse}")
    return value


def _scalar_kernel(params: PhysicalParams, u: np.ndarray) -> np.ndarray:
    """Position kernel of exp(-eps omega(k)): F0 / 2pi = 2 Re K11."""
    return 2.0 * kernel_blocks(params, u)[0].real


def _box_tail_fraction(params: PhysicalParams, box_half_width: float) -> float:
    """sqrt(tail / (inside + tail)), with inside and tail int k(u)^2 du over (0, L)
    and (L, inf), L = box_half_width, each a panel sum checked to BOX_TAIL_TOL:
    inside on panels doubling from eps/2, the tail on L 2^k, k <= 60 (past them
    the massless k^2 ~ u^-4 leaves 2^-180 of it). The tail's check also allows
    BOX_TAIL_TOL^3 of the inside mass, too little to move the gate."""
    def k2(u):
        return _scalar_kernel(params, u) ** 2

    inside = _checked_panel_sum(k2, _graded_edges(box_half_width, params.epsilon / 2.0),
                                BOX_TAIL_TOL, 0.0, "box-tail quadrature")
    tail = _checked_panel_sum(k2, box_half_width * 2.0 ** np.arange(61.0), BOX_TAIL_TOL,
                              BOX_TAIL_TOL**3 * inside, "box-tail quadrature")
    return math.sqrt(tail / (inside + tail)) if tail else 0.0


def min_box_half_width(params: PhysicalParams, box_half_width: float) -> float:
    """Smallest box_half_width * 2**k (k >= 0) beyond which _box_tail_fraction's
    checked panel sums find at most BOX_TAIL_TOL of the kernel's norm (more
    would bias the cross block; a NaN fraction fails too); ConvergenceError if
    a sum is unresolved, ValueError once a width exceeds MAX_BOX_HALF_WIDTH."""
    if not 0 < box_half_width < math.inf:
        raise ValueError("box_half_width must be positive and finite")
    width = box_half_width
    while True:
        if width > MAX_BOX_HALF_WIDTH:
            raise ValueError(f"box half-width {width:g} is too large (at most "
                             f"{MAX_BOX_HALF_WIDTH:.4g}): the box-tail panels out to "
                             "2^60 times it would overflow")
        if _box_tail_fraction(params, width) <= BOX_TAIL_TOL:
            return width
        width *= 2.0


def cross_block_nodes(params: PhysicalParams, box_half_width: float, n: int):
    """(rows, row weights, columns, column weights) of the cross block: rows
    inside (0, lam), columns in [-L, 0) and (lam, lam + L], L = box_half_width.

    Panels grade dyadically toward the interval endpoints down to eps/2. n is
    the total node budget, used up to 24 nodes per panel; below 4, ValueError.
    """
    lam = params.lam
    fine = params.epsilon / 2.0
    row_half = _graded_edges(lam / 2.0, fine)
    col_edges = _graded_edges(box_half_width, fine)
    n_panels = 2 * (row_half.size - 1) + 2 * (col_edges.size - 1)
    per = min(24, n // n_panels)
    if per < 4:
        raise ValueError(
            f"node budget n={n} too small: need at least {4 * n_panels} for "
            f"{n_panels} graded panels"
        )

    x_l, w_l = _panel_nodes(row_half, per)
    x_rows = np.concatenate([x_l, lam - x_l[::-1]])
    w_rows = np.concatenate([w_l, w_l[::-1]])

    y_out, w_out = _panel_nodes(col_edges, per)
    y_cols = np.concatenate([-y_out[::-1], lam + y_out])
    w_cols = np.concatenate([w_out[::-1], w_out])
    return x_rows, w_rows, y_cols, w_cols


def assemble_offdiagonal_truncation(params: PhysicalParams, nodes) -> np.ndarray:
    """Weight-symmetrized cross block of the damped symbol exp(-eps omega(k))
    on the nodes from cross_block_nodes."""
    x_rows, w_rows, y_cols, w_cols = nodes
    kvals = _scalar_kernel(params, x_rows[:, None] - y_cols[None, :])
    return np.sqrt(w_rows)[:, None] * kvals * np.sqrt(w_cols)[None, :]
