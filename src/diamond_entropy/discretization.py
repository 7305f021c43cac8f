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
cached. A partner is packed whatever the thread count. One thread rule,
in _solve, covers every solve. A process's share of the CPUs is those it
may use (sched_getaffinity) divided among the sweep workers that solve
beside it (share_cpus). Where the share holds two, the two triangles of a
buffer are solved at once, the lower on a helper thread; elsewhere one after
the other. Each solve runs on max(1, min(share // at once, the caller's
count)) OpenBLAS threads, so the library never raises the count the caller
runs, and a process started on one thread stays on one.
The solver is LAPACKE dsyevd_2stage from the OpenBLAS that numpy bundles,
called through ctypes on the library numpy.linalg has already loaded. It
reduces the matrix to a band with BLAS-3 and then chases the bulges down to
tridiagonal form (C. Bischof, B. Lang and X. Sun, ACM TOMS 26 (2000) 581;
A. Haidar, H. Ltaief and J. Dongarra, SC'11). Where N is a power of two,
every rung of the ladder, its eigenvalues came out the same bit for bit on
one and on two OpenBLAS threads, which dsyevd's did not; at other N they
differ in the last digit or two, and so may a partner's from its own solve.
LAPACK's two sides are not equally fast, and S+ is solved on the faster,
Fortran 'L': dsytrd_sy2sb took 0.28-0.31 s on 'L' against 0.39-0.43 s on
'U' (a random symmetric matrix, N = 2048, band width 32), a whole solve of
the real massive S+- 0.40 s against 0.46-0.53 s, and the pair solved at
once 0.50-0.69 s. No layout gives S- the fast side without more memory: two
Fortran-lower triangles both have columns that shorten as the address
grows, so only a lower and an upper one interleave in one buffer, and a
mapping of its own for S- costs about 8 MiB more at N = 2048. The band
width dsyevd_2stage picks, 32, stays: the three stages called one by one at
32 give the same bits, and 48 is 3 % faster on 'L' only.
The buffer is the only large array. It is a private anonymous mapping on
4 KiB base pages, which read as zero until written, so only the pages the
fill writes become resident: all of its 8 N (N + 1) bytes where both
triangles are filled, and for a massless spectrum solved alone only the
pages that hold part of the upper triangle, since no strip writes a zero
below its diagonal: all of them where a row lies on one page (N <= 512),
down toward half at large N (0.62 at N = 2047 and 2048). The
mapping goes back to the OS when the spectrum's last view dies, so no buffer
outlives its rung in the heap. One spectrum thus peaks at the imports plus
the buffer's written pages, LAPACK's workspace of about 105 N doubles for
each triangle solved at once, and the strip's temporaries, a fixed budget of
a few MB at every N. Before the solve, glibc's malloc_trim hands the heap
pages those temporaries freed back to the OS, which the allocator would
otherwise keep; where numpy exports no LAPACKE, np.linalg.eigvalsh solves a
copy, adding 8 N^2 bytes. check_spectrum_memory compares the whole buffers,
written or not (spectrum_buffer_bytes, without the O(N) workspaces), with
the memory check_memory allows. The grids and their Gauss-Legendre rules
come from quadrature.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import threading
from collections import OrderedDict

import numpy as np

from .dirac_symbols import PhysicalParams
from .errors import ConvergenceError
from .kernel_eval import kernel_blocks
# build_grid is re-exported: perfbench/traced.py binds and calls
# discretization.build_grid, and tests/test_bench_contract.py guards that
# binding. Grid annotates operator_eigenvalues.
from .quadrature import Grid, build_grid

DEFAULT_TOL_DISC = 1e-6
MIN_GRID_SIZE = 64  # the smallest grid-size cap
# separations evaluated per strip while S+- is filled: max(1, _FILL_ELEMENTS // N)
# rows, so the strip's temporaries take the same few MB at every N
_FILL_ELEMENTS = 2**15


def _openblas_routines(*signatures):
    """Routines of the OpenBLAS bundled with numpy, each signature a (name,
    restype, *argtypes), through the library numpy.linalg has already mapped;
    all None where numpy exports any one of them not."""
    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        return [ctypes.CFUNCTYPE(*types)((name, library)) for name, *types in signatures]
    except (AttributeError, OSError):
        return (None,) * len(signatures)


# LAPACKE_dsyevd_2stage with 64-bit integers, (layout, jobz, uplo, n, a, lda, w)
# -> info, and the OpenBLAS thread count's getter and setter: all three or none
_DSYEVD, _BLAS_THREADS, _SET_BLAS_THREADS = _openblas_routines(
    ("scipy_LAPACKE_dsyevd_2stage64_", ctypes.c_int64, ctypes.c_int, ctypes.c_char,
     ctypes.c_char, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p),
    ("scipy_openblas_get_num_threads64_", ctypes.c_int),
    ("scipy_openblas_set_num_threads64_", None, ctypes.c_int))
_LAPACK_COL_MAJOR = 102
# glibc's malloc_trim(pad) -> int, None where the C library has none: _solve
# returns the heap's free pages to the OS before LAPACK's workspace comes
try:
    _MALLOC_TRIM = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_size_t)(
        ("malloc_trim", ctypes.CDLL(None)))
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None

# processes solving spectra side by side, this one included: 1 unless
# share_cpus, sweep's pool initializer, says otherwise
_processes = 1
# held by _solve from setting the BLAS thread count to restoring it
_blas_threads_lock = threading.Lock()


def _cpu_share() -> int:
    """This process's share of the CPUs it may use, at least 1; 1 where the
    platform does not say which CPUs it may use."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, cpus // _processes)


def share_cpus(processes: int) -> None:
    """Record that this process is one of `processes` that solve spectra at
    once: sweep's pool runs this in each worker."""
    global _processes
    _processes = processes


def spectrum_buffer_bytes(n: int) -> int:
    """Bytes of the (N + 1) x N buffer one spectrum holds, plus the N x N copy
    np.linalg.eigvalsh makes when the fallback solves. The buffer also holds
    a partner's spectrum at mass 0. All of it is counted, although only the
    pages the fill writes become resident: at mass 0 without a partner, all
    at N <= 512 and 0.56 to 0.88 of them from N = 1000 to 4096 (README).
    LAPACK's O(N) workspaces (about 105 N doubles each, two where both
    triangles are solved at once) are not counted."""
    matrices = 1 if _DSYEVD is not None else 2
    return 8 * n * (matrices * n + 1)


def physical_memory_bytes() -> int:
    """Physical memory of the machine, from the page count and page size."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _cgroup_memory_bytes(cgroups: str = "/proc/self/cgroup",
                         mounts: str = "/sys/fs/cgroup") -> int | None:
    """The least memory limit set on this process's cgroup or an ancestor
    (v2 memory.max under mounts, v1 memory.limit_in_bytes under
    mounts/memory); None where none is set or readable."""
    try:
        with open(cgroups) as table:
            entries = [line.split(":", 2) for line in table.read().splitlines()]
    except OSError:
        return None
    limits = []
    for _, controllers, path in entries:
        if controllers and "memory" not in controllers.split(","):
            continue
        root, name = ((os.path.join(mounts, "memory"), "memory.limit_in_bytes") if controllers
                      else (mounts, "memory.max"))
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            try:
                with open(os.path.join(root, *parts[:depth], name)) as limit:
                    limits.append(int(limit.read()))
            except (OSError, ValueError):  # no such file, or "max"
                pass
    return min(limits, default=None)


def check_memory(bytes_for, count: int, flag: str, where: str = "") -> int:
    """How many requests of bytes_for(count) bytes fit at once in the lesser of
    physical memory and this process's cgroup memory limit (a sweep's pool
    shares both; an unset cgroup limit does not apply); ValueError naming flag,
    count, that limit and the largest count that fits when not even one does.
    bytes_for must grow with its count; where qualifies the count in the message."""
    total, holds = physical_memory_bytes(), "physical memory holds"
    cgroup = _cgroup_memory_bytes()
    if cgroup is not None and cgroup < total:
        total, holds = cgroup, "this process's cgroup memory limit allows"
    need = bytes_for(count)
    if need > total:
        fits, over = 0, count  # bytes_for(fits) <= total < bytes_for(over)
        while over - fits > 1:
            mid = (fits + over) // 2
            fits, over = (mid, over) if bytes_for(mid) <= total else (fits, mid)
        raise ValueError(f"{flag} {count}{where} needs more than the {total:.3g} bytes "
                         f"{holds}; the largest {flag} that fits{where} is {fits}")
    return total // max(need, 1)


def check_spectrum_memory(n: int) -> int:
    """How many spectra at grid-size cap n fit in memory at once (check_memory);
    ValueError if n < MIN_GRID_SIZE or not even one spectrum's eigensolver
    buffers fit. entanglement_entropy, sweep, offdiagonal_diagnostic and
    matched_grid_entropy check their cap here before any spectrum."""
    if n < MIN_GRID_SIZE:
        raise ValueError(f"n must be >= {MIN_GRID_SIZE}, got {n}")
    return check_memory(spectrum_buffer_bytes, n, "grid-size cap")


def _eigvalsh_in_place(buf: np.ndarray, upper: bool) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix in one triangle of the
    C-ordered buf: the upper one (with the diagonal) if upper, else the lower.

    LAPACKE dsyevd_2stage (eigenvalues only) reads buf's memory in
    column-major order, as buf.T, whose lower triangle is buf's upper one.
    dsytrd_sy2sb and dsytrd_sb2st, then dsterf, read and overwrite only that
    triangle and the diagonal; the other strict triangle survives the solve
    bit for bit. Where numpy exports no LAPACKE, the fallback
    np.linalg.eigvalsh solves a copy and leaves buf as it was. A solve that
    fails (a matrix with a NaN, say) raises ConvergenceError.
    """
    n = buf.shape[0]
    if (buf.shape != (n, n) or buf.dtype != np.float64 or not buf.flags.c_contiguous
            or not buf.flags.writeable):
        raise ValueError("buf must be a square, writeable, C-contiguous float64 array")
    if _DSYEVD is None:
        try:
            return np.linalg.eigvalsh(buf, UPLO="U" if upper else "L")
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"np.linalg.eigvalsh failed: {exc}") from None
    eigenvalues = np.empty(n)
    info = _DSYEVD(_LAPACK_COL_MAJOR, b"N", b"L" if upper else b"U", n, buf.ctypes.data, n,
                   eigenvalues.ctypes.data)
    if info != 0:
        raise ConvergenceError(f"LAPACKE dsyevd_2stage failed with info = {info}")
    return eigenvalues


def _solve_into(outcome: list, view: np.ndarray, upper: bool) -> None:
    """Append the eigenvalues of one triangle, or the error its solve raised,
    to outcome: the helper thread's work in _solve, which raises that error
    in the calling thread."""
    try:
        outcome.append(_eigvalsh_in_place(view, upper))
    except BaseException as exc:
        outcome.append(exc)
        # the error's traceback holds this frame: without outcome in it, no
        # cycle keeps the buffer mapped after the error is dropped
        outcome = None


def _solve(triangles) -> tuple[np.ndarray, ...]:
    """Ascending eigenvalues of each (view, upper) triangle of one spectrum
    buffer, one or two, under the module docstring's thread rule. Two solved
    at once run the second on a bare helper thread, which is joined before
    this returns or raises, so no thread writes to the buffer afterwards nor
    solves after the caller's count is back. Where both solves fail, the
    first triangle's error propagates. The BLAS count is process-wide, so it
    is set and restored under _blas_threads_lock (threads that ask for
    spectra at once solve in turn; no caller in the package does), and it
    comes back after the helper joins, whether the solves return or raise.
    The np.linalg fallback sets no count and solves one triangle at a time.
    First the heap's free pages, most of them the fill's strip temporaries,
    go back to the OS (_MALLOC_TRIM), so that the spectrum's peak is not
    those pages and LAPACK's workspace on top of the filled buffer."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    if _DSYEVD is None:
        return tuple(_eigvalsh_in_place(view, upper) for view, upper in triangles)
    share = _cpu_share()
    at_once = 2 if len(triangles) == 2 and share >= 2 else 1
    with _blas_threads_lock:
        caller_threads = _BLAS_THREADS()
        _SET_BLAS_THREADS(max(1, min(share // at_once, caller_threads)))
        try:
            if at_once == 1:
                return tuple(_eigvalsh_in_place(view, upper) for view, upper in triangles)
            outcome = []
            helper = threading.Thread(target=_solve_into, args=(outcome, *triangles[1]))
            helper.start()
            try:
                first = _eigvalsh_in_place(*triangles[0])
            finally:
                helper.join()
            # raised or returned straight from the list, so no local of this
            # frame holds the helper's error in a cycle through its traceback
            if isinstance(outcome[0], BaseException):
                raise outcome.pop()
            return first, outcome.pop()
        finally:
            _SET_BLAS_THREADS(caller_threads)


def _zeroed_buffer(n: int) -> np.ndarray:
    """An (n + 1) x n float64 array on a private anonymous mapping of its own.

    Its pages read as zero and become resident only when written, one 4 KiB
    base page at a time. Where the kernel's transparent-huge-page mode is
    "always", huge pages would make untouched stretches resident too, so
    MADV_NOHUGEPAGE is set; under "madvise" nothing asks for them and the
    call changes nothing. MADV_HUGEPAGE where both triangles are filled
    was slower end to end: the entropy-massive benchmark went from 0.959 to
    1.036 s median wall (faster in 3 of 12 alternating runs), orders from
    1.691 to 1.782 s (0 of 8), and peak RSS rose by 0.14-0.24 MB. The
    mapping is unmapped when its last view dies, so unlike a freed heap
    block it leaves nothing behind. MemoryError, naming n and the bytes,
    where the mapping cannot be made (under a soft RLIMIT_AS).
    """
    size = 8 * n * (n + 1)
    try:
        mapping = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as exc:
        raise MemoryError(f"the spectrum buffer at N = {n} ({size} bytes) cannot be mapped: "
                          f"{exc.strerror}") from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        mapping.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(mapping).reshape(n + 1, n)


def _strip_terms(params: PhysicalParams, x: np.ndarray, sw: np.ndarray, rows, cols, tri):
    """A, B + C and B - C of params on the fill strip rows x cols (the nodes
    x, the square roots sw of the weights), zero off D and with weight 1/2
    where two images coincide (A at j = i', B +- C at j = i). D cuts a strip of
    k rows only in its first k columns, by tri (j >= i), and its last k, by
    tri mirrored; where the two overlap, both apply."""
    a, b, c = kernel_blocks(params, x[rows, None] - x[None, cols])
    W = sw[rows, None] * sw[None, cols]
    k, w = W.shape
    W[:, :k] *= tri
    W[:, w - k:] *= tri[:, ::-1]
    r = np.arange(k)
    A = a * W
    A[r, w - 1 - r] *= 0.5  # j = i'
    W[r, r] *= 0.5          # j = i
    P = b * W  # B + C
    if params.mass == 0.0:
        return A, P, P
    C = c * W
    Q = P - C  # B - C
    P += C
    return A, P, Q


def _spectrum(params: PhysicalParams, x: np.ndarray, weights: np.ndarray,
              partner: PhysicalParams | None = None) -> tuple[np.ndarray, ...]:
    """Eigenvalues of S+- on the nodes x with the quadrature weights: a
    1-tuple, or with a massless partner at mass 0, (this spectrum, the
    partner's) from the two triangles.

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
    given a partner, each strip also evaluates the partner's kernel and writes
    it there through the images of S-, which at C = 0 give the partner's S+.
    The fill runs on the calling thread, and _solve solves the filled
    triangles under the module's thread rule.
    """
    sw = np.sqrt(weights)
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
    corner = np.arange(min(strip_rows, h))
    on_or_right = corner[:, None] <= corner
    for a in range(0, h, strip_rows):
        b = min(a + strip_rows, h)
        rows, cols = slice(a, b), slice(a, n - a)
        k, w = b - a, n - 2 * a
        tri = on_or_right[:k, :k]
        A, P, Q = _strip_terms(params, x, sw, rows, cols, tri)
        # in the strip's first k columns A is zero left of the diagonal, and
        # in its last k columns P and Q are zero past column N-1-i: there
        # only the cells on and right of the diagonal (tri) and on and left
        # of the antidiagonal (anti) are added, so S+'s images fault in no
        # page below its diagonal (w >= k always). Masked ufuncs allocate
        # nothing per strip: index arrays for the same cells cost the
        # benchmarks about 0.1 MB of peak RSS
        head, tail = slice(a, a + k), slice(n - a - k, n - a)
        anti = tri[:, ::-1]
        # a transposed image is written as view[cols, rows] += X.T, which
        # numpy runs about 3x faster than view.T[rows, cols] += X
        view = plus[rows, head]
        np.add(view, A[:, :k], out=view, where=tri)
        plus[rows, a + k:n - a] += A[:, k:]
        view = plus_mirror[head, rows]
        np.add(view, A[:, :k].T, out=view, where=tri.T)
        plus_mirror[a + k:n - a, rows] += A[:, k:].T
        view = right[rows, tail]
        np.add(view, P[:, w - k:], out=view, where=anti)
        right[rows, a:n - a - k] += P[:, :w - k]
        view = right[tail, rows]
        np.subtract(view, Q[:, w - k:].T, out=view, where=anti.T)
        right[a:n - a - k, rows] -= Q[:, :w - k].T
        if lower is None:
            continue
        if lower is not params:
            del A, P, Q  # not alive while the partner's strip is evaluated
            A, P, Q = _strip_terms(lower, x, sw, rows, cols, tri)
        minus[cols, rows] += A.T
        minus_mirror[rows, cols] += A
        down[rows, cols] -= P
        down[cols, rows] += Q.T
    halves = _solve(((plus, True),) if lower is None else ((plus, True), (minus, False)))
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


def _cached_spectrum(params: PhysicalParams, x: np.ndarray, weights: np.ndarray,
                     partner: PhysicalParams | None) -> np.ndarray:
    """_spectrum through the cache, keyed by the parameters and the bytes of
    the nodes and weights. A miss at mass 0 also solves a massless partner's
    spectrum on them, unless that one is cached, and keeps both."""
    key = (params, x.tobytes(), weights.tobytes())
    partner_key = (partner, *key[1:])
    with _spectra_lock:
        if key in _spectra:
            _spectra.move_to_end(key)
            return _spectra[key]
        if (partner is None or params.mass != 0.0 or partner.mass != 0.0
                or partner_key in _spectra):
            partner = None
    spectra = _spectrum(params, x, weights, partner)
    with _spectra_lock:
        _spectra[key] = spectra[0]
        if partner is not None:
            _spectra[partner_key] = spectra[1]
        while len(_spectra) > _SPECTRUM_CACHE_SIZE:
            _spectra.popitem(last=False)
    return spectra[0]


def validate_spectrum_range(eigenvalues: np.ndarray) -> None:
    """Raise ConvergenceError unless the spectrum lies in [-tol, 1 + tol]; a
    NaN fails."""
    lo = float(eigenvalues.min())
    hi = float(eigenvalues.max())
    tol = DEFAULT_TOL_DISC
    if not (lo >= -tol and hi <= 1.0 + tol):
        raise ConvergenceError(
            f"spectrum [{lo:.3e}, {hi:.10g}] leaves [-{tol:.0e}, 1+{tol:.0e}]; "
            "the grid does not resolve this epsilon"
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
    256 are dropped) by the parameters and the nodes solved on, grid.nodes +
    x_offset, and grid.weights, so inputs that solve one matrix share an
    entry. partner names the spectrum to be asked for next on this grid: where
    both masses are 0, the cache is on and neither spectrum is cached, the
    partner's is solved in the buffer's free triangle and cached unchecked, and
    elsewhere it is ignored. It does not change this spectrum's bits; the
    partner's may differ from its own solve in the last digits. ValueError if
    the grid is not on (0, params.lam).
    """
    if grid.lam != params.lam:
        raise ValueError(f"grid is on (0, {grid.lam}), but params.lam is {params.lam}")
    x = grid.nodes + x_offset
    if use_cache:
        eigenvalues = _cached_spectrum(params, x, grid.weights, partner)
    else:
        eigenvalues = _spectrum(params, x, grid.weights)[0]
    if validate:
        validate_spectrum_range(eigenvalues)
    return eigenvalues

