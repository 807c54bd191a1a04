"""Self-contained symmetric generalized eigensolvers.

Two paths, both free of third-party eigensolver libraries (numpy supplies
array arithmetic, the dense Rayleigh-Ritz projections and the LAPACK
factorisations of dense blocks):

* :func:`smallest_eigenpairs`: preconditioned blocked LOBPCG iteration for
  large pencils (K, M) given as sparse or matrix-free operators,
  deterministic for a fixed seed.  The block is sized past the requested
  count so clustered eigenvalues are recovered.  A block-diagonal pencil
  is solved per diagonal block in one iteration: every basis vector lives
  in one block, and the blocks' Ritz values are merged by a stable sort.
  A block may stand for copies of itself, blocks with the same spectrum
  that are never iterated: the merge counts its values once per copy.
  K's ``blocks`` and ``classes`` give the layout.
* :func:`banded_smallest`: banded Cholesky factorisation plus block inverse
  iteration for the first pair of small banded pencils (orders up to
  ~1e4), optionally started from a given column.  The factor is built on
  dense 64×64 diagonal blocks with numpy's LAPACK (``np.linalg.cholesky``),
  coupled through bandwidth² corners, and applied through the blocks'
  inverses, which :func:`_lower_inverse` forms by halving each triangle.

The iteration budgets, and the banded tolerance and seed, are constants.

Both hold a basis with its pencil images as a row stack, one vector per
contiguous row: LOBPCG a ``(2, b, n)`` array (Y, K·Y), the banded solver a
``(3, b, n)`` array (Y, A·Y, B·Y).  ``Cᵀ @ S`` changes the basis of every
plane, and :func:`_rayleigh_ritz` forms the Grams from the planes it is
given without applying the operators again.  LOBPCG applies M afresh
wherever it needs an M product (the M-Gram of each projection, the
residual rows, the M-norms of new rows): M is the cheap operand (diagonal
in the box's sine coordinates), and implicit M images drift.  It never
holds its starting stack next to its basis stack, nor a caller's start
block past the copy that seeds the starting block.  The starting block
lives in a stack of its own until the first projection has taken the kept
Ritz rows out of it into a (2, k, n) block, k the most vectors any
diagonal block keeps (its share of the m smallest plus GUARDS); only then
is the stack of 3k rows that keeps [X | P | W] allocated around those
rows, and the block becomes its spare.  Both are written in place every
iteration and reallocated, occupied rows copied, only when a block's
share grows; diagonal block q owns its segment of the columns and fills
its own rows from the top.  K, M and the preconditioner take (n, b)
operands, one per apply for all blocks, and receive transposed views of
those rows; the residual rows W are gathered into the spare, which is
free until the momentum step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: whitening drops Gram eigenvalues below DROP_REL times the largest
DROP_REL = 1e-13
#: random columns of the starting block past the m a caller may set
SEEDED = 8
#: Ritz pairs each block keeps past its share of the m smallest
GUARDS = 4
#: iteration budgets of LOBPCG and of the banded inverse iteration
LOBPCG_MAXITER, BANDED_MAXITER = 500, 300
#: residual tolerance and starting seed of every banded first-pair solve
FIRST_PAIR_TOL, FIRST_PAIR_SEED = 1e-13, 0


class BreakdownError(RuntimeError):
    """A solver step broke down and left no result to report."""


class IndefiniteMassError(BreakdownError):
    """The mass/metric matrix is not positive definite."""


class FactorizationError(BreakdownError):
    """A direct factorisation broke down (non-positive or smallest pivot)."""

    def __init__(self, pivot, value):
        self.pivot = pivot
        self.value = value
        kind = "smallest" if value > 0.0 else "non-positive"
        super().__init__(f"{kind} pivot {value:.3e} at index {pivot}")


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the partial result."""

    def __init__(self, result, message):
        self.result = result
        super().__init__(message)


@dataclass(frozen=True)
class EigenResult:
    """Smallest eigenpairs with per-pair convergence evidence.

    ``residuals`` are relative: ||K x − σ M x||₂ / (σ ||x||_M).
    ``vectors`` holds one column per pair in the coordinates K and M act
    on.  ``classes`` labels each pair with the class it lives in (from
    ``K.classes`` in :func:`smallest_eigenpairs`; 0 for a pencil solved as
    one block).  A copy's column repeats its block's vector, so the
    columns are M-orthonormal once each is carried onto its class; with
    no copies they are M-orthonormal as they stand.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: np.ndarray
    classes: np.ndarray


def _checked(result, what, tol):
    """``result``; a ConvergenceError carrying it if a pair is unconverged."""
    bad = np.flatnonzero(~result.converged)
    if bad.size:
        raise ConvergenceError(result, f"unconverged {what} {bad.tolist()} "
                               f"after {result.iterations} iterations "
                               f"(tol {tol:g})")
    return result


def _whiten(gram):
    """Return V with Vᵀ G V = I on the numerically independent subspace.

    Callers pass normalised bases so the Gram is well scaled; tiny
    negative eigenvalues are dependent directions and get dropped, while a
    clearly negative one witnesses an indefinite metric.
    """
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    top = max(evals[-1], 0.0)
    if evals[0] < -1e-10 * max(top, 1.0):
        raise IndefiniteMassError(
            f"metric Gram matrix has negative eigenvalue {evals[0]:.3e}")
    keep = evals > DROP_REL * max(top, 1e-300)
    if not np.any(keep):
        raise BreakdownError("iteration subspace collapsed")
    return evecs[:, keep] / np.sqrt(evals[keep])


def _rayleigh_ritz(Y, KY, MY):
    """Ritz values θ (ascending) and coefficients C of a basis given by rows.

    With K·Y and M·Y the pencil applied to the Y rows: Cᵀ(Y M Yᵀ)C = I and
    Cᵀ(Y K Yᵀ)C = diag θ on the numerically independent part of span Y, so
    ``Cᵀ @ Y`` holds the Ritz vectors and ``Cᵀ @ KY`` their K images.
    """
    try:
        V = _whiten(Y @ MY.T)
        H = V.T @ (Y @ KY.T) @ V
        theta, Q = np.linalg.eigh(0.5 * (H + H.T))
    except np.linalg.LinAlgError as err:
        raise BreakdownError(f"Rayleigh-Ritz projection failed: {err}") \
            from None
    return theta, V @ Q


def _residuals(KY, MY, theta, scale, out=None):
    """Residual rows K y − θ M y (into ``out``) and their norms / scale."""
    R = np.multiply(MY, theta[:, None], out=out)
    np.subtract(KY, R, out=R)
    return R, np.linalg.norm(R, axis=1) / np.maximum(scale, 1e-300)


def _merge(thetas, copies):
    """The per-block Ritz values in ascending order, block q's counted
    copies[q] times: for each entry its block, its index in the block and
    its copy.  The sort is stable, so ties between blocks fall the same way
    every run and the copies of a value stay together."""
    counts = [t.size * c for t, c in zip(thetas, copies)]
    order = np.argsort(np.concatenate(
        [np.repeat(t, c) for t, c in zip(thetas, copies)]), kind="stable")
    owner = np.repeat(np.arange(len(thetas)), counts)[order]
    local = order - np.repeat(np.cumsum(counts) - counts, counts)[order]
    return owner, *np.divmod(local, np.asarray(copies)[owner])


def _start_block(start, n, m):
    """A caller's start columns as an (n, k) array, k <= m (k = 0 for
    None)."""
    start = np.empty((n, 0)) if start is None else np.asarray(
        start, dtype=np.float64)
    if start.ndim != 2 or start.shape[0] != n or start.shape[1] > m:
        raise ValueError(f"start must be an ({n}, k) block with k <= "
                         f"m = {m}, got shape {start.shape}")
    return start


def _basis_stack(rows, n, occupied):
    """LOBPCG's basis stack for blocks that keep at most ``rows`` vectors,
    and its spare block.

    The (2, 3·rows, n) stack holds each block's [X | P | W] rows and their
    K images, ``occupied`` (the first projection's kept rows, or the
    leading rows of a smaller stack) copied in front; the (2, rows, n)
    spare takes the residual rows, W and the momentum combination.  The
    kept rows, a (2, rows, n) block of their own, are free once copied and
    become the spare; a view of an outgrown stack is not reused.  Both are
    zero where nothing is written: K and M are applied to every row up to
    the longest block's count, so the rows past a block's own count must
    be finite, and the block-diagonal pencil keeps them out of every other
    block.
    """
    S = np.zeros((2, 3 * rows, n))
    S[:, :occupied.shape[1]] = occupied
    own = occupied.flags.owndata and occupied.shape == (2, rows, n)
    return S, occupied if own else np.zeros((2, rows, n))


def smallest_eigenpairs(K, M, m, tol=1e-8, seed=0, precond=None,
                        start=None):
    """m algebraically smallest eigenpairs of K x = σ M x by blocked LOBPCG.

    K and M need only ``order`` and ``matvec`` (on (n,) and (n, b)
    operands): a CSR matrix or a matrix-free operator.  K must be
    symmetric, M symmetric positive definite, m <= order/4 of the full
    pencil (copies counted: see ``K.classes``).  The starting block has
    m + ``SEEDED`` (8) columns, standard normal from ``seed`` in the
    coordinates K and M act on, and the whole iteration is deterministic.
    An (n, k) ``start`` block with k <= m, such as Ritz vectors of a small
    Galerkin problem, takes the place of its first k columns; ``seed``
    draws only the others, so the columns past m stay random and can find
    an eigenvector that ``start`` misses.  From the first Rayleigh–Ritz
    step on, the basis keeps m + ``GUARDS`` (4) Ritz vectors, and its
    stack holds three rows per kept vector.  Eigenvalues within a cluster
    are reported individually.

    The basis is held with its K image only: K·Y is carried through every
    change of basis, because K is the expensive apply, while M is applied
    afresh wherever an M product is needed.  Per iteration K takes the W
    block once; M takes W (its M-norms), every occupied row of the stack
    (the M-Gram of the Rayleigh–Ritz step), the momentum rows P (their
    M-norms) and the new X (the residual rows).  So the M-Gram is exact to
    rounding, and the M-norms of rows normalised from tiny momentum parts
    carry no amplified rounding forward.

    ``start`` is copied into the starting block and not referenced after
    that, so a block the caller does not hold itself is freed before the
    first K apply; the module docstring gives the stacks' lifetimes.

    ``K.blocks``, sizes summing to the order, says K and M are
    block-diagonal with consecutive diagonal blocks of those sizes; an
    operand without it (a CSR matrix, say) is one block.  Every basis
    vector then lives in one block: each starting column contributes its
    part in every block (none where the part is zero), and whitening,
    Rayleigh–Ritz, the updates and the residuals run per block.
    After each Rayleigh–Ritz step the per-block Ritz values are merged by
    a stable sort, and each block keeps its share of the m smallest plus
    ``GUARDS`` more; the stack then holds three rows per vector of the
    block that keeps most, and is reallocated at the new size, occupied
    rows copied, when a later step keeps more.  K, M and ``precond`` still
    take one (n, b) operand per apply: column i holds every block's i-th
    vector on that block's rows.  A block whose rows whitening finds
    dependent restarts: Ritz combinations of dependent rows carry amplified
    rounding into the implicit K images, so it carries no momentum block P
    into the next step, and its new X gets K·X applied afresh.

    ``K.classes`` labels the blocks: per block the labels of the classes of
    the full pencil it stands for, its own first (without it, the one
    block is class 0 alone).  A block with c labels has c − 1 copies,
    blocks of the full pencil with the same spectrum that are not solved:
    the merge counts each of its Ritz values c times, when it picks each
    block's share of the m smallest (⌈count / c⌉) and the m pairs it
    returns, and a copy's pair is its block's: its column of
    ``EigenResult.vectors`` repeats the block's vector, and
    ``EigenResult.classes`` holds the label it stands for.  With every
    count 1 the iteration is the one on the blocks alone.

    Residuals are decided implicitly and reported explicitly: each
    iteration takes its residual norms from the K X block it holds and a
    fresh M X.  The loop has one exit: once those norms pass ``tol``, or
    the ``LOBPCG_MAXITER`` (500) budget runs out, the block is
    re-projected and its residuals are recomputed with K and M.
    Convergence is declared on the recomputed ones, and every result
    reports them.  Non-convergence within the budget raises
    :class:`ConvergenceError` carrying the partial result with per-pair
    flags; a collapsed subspace raises :class:`BreakdownError`.
    """
    n = K.order
    if m < 1:
        raise ValueError("m must be >= 1")
    sizes = tuple(int(b) for b in getattr(K, "blocks", (n,)))
    if sum(sizes) != n or min(sizes) < 1:
        raise ValueError(f"K.blocks must be positive sizes summing to {n}, "
                         f"got {sizes}")
    labels = tuple(tuple(c) for c in getattr(K, "classes", ((0,),)))
    if len(labels) != len(sizes) or min(map(len, labels)) < 1:
        raise ValueError(f"K.classes must label each of the {len(sizes)} "
                         f"blocks at least once, got {labels}")
    copies = np.array([len(c) for c in labels])
    # the order of the full pencil, every copy counted
    full = int(np.dot(sizes, copies))
    if m > full // 4:
        raise ValueError(f"m={m} exceeds order/4 = {full // 4}")
    stops = np.cumsum(sizes).tolist()
    segs = [slice(stop - size, stop) for size, stop in zip(sizes, stops)]
    bs = min(m + SEEDED, full)

    start = _start_block(start, n, m)
    k = start.shape[1]
    X = np.empty((n, bs))
    X[:, :k] = start
    # copied: the caller's block is not held past here, so one passed as
    # a temporary is freed before the first K apply
    del start
    X[:, k:] = np.random.default_rng(seed).standard_normal((n, bs - k))
    for seg in segs:
        part = np.linalg.norm(X[seg], axis=0)
        # a column with no part in this block gives it a zero row, which
        # whitening drops
        X[seg] /= np.where(part > 0, part, np.inf)
    # the starting block and its K image, one vector per row; it lives
    # until the first projection has taken the kept Ritz rows out of it.
    # K and M get its own rows, transposed, so they copy nothing
    first = np.empty((2, bs, n))
    first[0] = X.T
    del X
    first[1] = K.matvec(first[0].T).T
    nx, npr = [bs] * len(segs), [0] * len(segs)

    def ritz(stack, tops):
        """Rayleigh–Ritz on each block's rows :tops[q] of ``stack``, M·Y
        applied afresh: the pairs each block keeps, its share of the m
        smallest Ritz values over all blocks, and whether the block must
        restart (dependent rows)."""
        Y, KY = stack[:, :max(tops)]
        MY = M.matvec(Y.T).T
        pairs = [_rayleigh_ritz(Y[:top, seg], KY[:top, seg], MY[:top, seg])
                 for top, seg in zip(tops, segs)]
        del MY
        dependent = [C.shape[1] < top for (_, C), top in zip(pairs, tops)]
        owner = _merge([theta for theta, _ in pairs], copies)[0][:m]
        share = -(-np.bincount(owner, minlength=len(segs)) // copies)
        return [(theta[:k], C[:, :k]) for (theta, C), k
                in zip(pairs, share + GUARDS)], share, dependent

    def project():
        """Ritz-rotate each block's X rows in place; P stays behind them."""
        pairs, share, _ = ritz(S, nx)
        for q, (seg, (_, C)) in enumerate(zip(segs, pairs)):
            k = C.shape[1]
            S[:, :k, seg] = np.matmul(C.T, S[:, :nx[q], seg],
                                      out=spare[:, :k, seg])
            if k < nx[q]:
                S[:, k:k + npr[q], seg] = S[:, nx[q]:nx[q] + npr[q], seg]
            nx[q] = k
        return [theta for theta, _ in pairs], share

    def residuals(explicit):
        """Residual rows and relative norms of each block's X (K·X fresh or
        held, M·X fresh)."""
        X = S[0, :max(nx)].T
        KX = K.matvec(X).T if explicit else S[1, :max(nx)]
        MX = M.matvec(X).T
        out = [_residuals(KX[:k, seg], MX[:k, seg], theta, np.abs(theta),
                          out=spare[0, :k, seg])
               for k, seg, theta in zip(nx, segs, thetas)]
        return [R for R, _ in out], [res for _, res in out]

    def converged():
        return all(np.all(r[:w] <= tol) for r, w in zip(res, share))

    def widen():
        """Write each block's preconditioned residual rows W, M-normalised,
        with their K images behind its X and P rows; the rows each block
        then fills."""
        active = [~(r <= tol) for r in res]
        if not any(a.any() for a in active):
            for a, w in zip(active, share):
                a[:w] = True
        nw = [int(a.sum()) for a in active]
        # gathered into the spare's K plane, which nothing holds until
        # advance; zero past each block's own rows, as in the basis stack
        W = spare[1, :max(nw)]
        for seg, a, Rq, k in zip(segs, active, R, nw):
            W[:k, seg] = Rq[a]
            W[k:, seg] = 0.0
        W = W.T
        if precond is not None:
            W = precond(W)
        MW = M.matvec(W)
        scales = [1.0 / np.sqrt(np.maximum(np.einsum(
            "ij,ij->j", W[seg, :k], MW[seg, :k]), 1e-300))
            for seg, k in zip(segs, nw)]
        del MW
        W = (W, K.matvec(W))
        tops = []
        for q, (seg, scale) in enumerate(zip(segs, scales)):
            low = nx[q] + npr[q]
            tops.append(low + nw[q])
            for i, block in enumerate(W):
                np.multiply(block[seg, :nw[q]].T, scale[:, None],
                            out=S[i, low:tops[q], seg])
        return tops

    def advance(pairs, tops, dependent):
        """Write each block's new X and momentum block P from its Ritz
        coefficients; a restarting block gets K·X applied afresh."""
        for q, (seg, (_, C)) in enumerate(zip(segs, pairs)):
            x, top, k = nx[q], tops[q], C.shape[1]
            # momentum block P: the Ritz directions' P/W part alone, kept
            # M-normalised row by row; the new X adds the X part to it
            np.matmul(C[x:].T, S[:, x:top, seg], out=spare[:, :k, seg])
            np.matmul(C[:x].T, S[:, :x, seg], out=S[:, x:x + k, seg])
            np.add(S[:, x:x + k, seg], spare[:, :k, seg], out=S[:, :k, seg])
            nx[q], npr[q] = k, 0
        P = spare[0, :max(nx)]
        MP = M.matvec(P.T).T
        for q, seg in enumerate(segs):
            if dependent[q]:  # restart: no P, K·X applied below
                continue
            k = nx[q]
            pnorm = np.sqrt(np.maximum(np.einsum(
                "ij,ij->i", P[:k, seg], MP[:k, seg]), 0.0))
            keep = pnorm > 1e-12
            Pq = spare[:, :k, seg]
            Pq = Pq if np.all(keep) else Pq[:, keep]
            npr[q] = Pq.shape[1]
            np.multiply(Pq, 1.0 / pnorm[keep, None],
                        out=S[:, k:k + npr[q], seg])
        del MP
        if any(dependent):
            KX = K.matvec(S[0, :max(nx)].T).T
            for q, seg in enumerate(segs):
                if dependent[q]:
                    S[1, :nx[q], seg] = KX[:nx[q], seg]

    # the first projection takes each block's kept Ritz rows out of the
    # starting stack, which is freed before the basis stack, sized for the
    # most that any block keeps, is allocated around them
    pairs, share, _ = ritz(first, nx)
    kept = np.zeros((2, max(C.shape[1] for _, C in pairs), n))
    for q, (seg, (_, C)) in enumerate(zip(segs, pairs)):
        nx[q] = C.shape[1]
        np.matmul(C.T, first[:, :bs, seg], out=kept[:, :nx[q], seg])
    del first
    S, spare = _basis_stack(kept.shape[1], n, kept)
    del kept
    thetas = [theta for theta, _ in pairs]
    it = 0
    R, res = residuals(False)
    while True:
        # one exit, whether the implicit norms passed or the budget ran out
        # (maybe just as they passed): the block is re-projected, so it is
        # M-orthonormal, and its residuals are recomputed explicitly.  The
        # norms are not read before the guards have had one step: in a
        # block its start nearly spans, the starting Ritz pairs pass at
        # once, while another block's guards may still sit above an
        # eigenvalue they will find
        if it >= LOBPCG_MAXITER or (it and converged()):
            # rotations inside an eigenvalue cluster redistribute residual
            # norms, so convergence is decided on the re-projected block
            thetas, share = project()
            res = residuals(True)[1]
            if it >= LOBPCG_MAXITER or converged():
                break
            R = residuals(False)[0]
        it += 1
        tops = widen()
        pairs, share, dependent = ritz(S, tops)
        rows = max(C.shape[1] for _, C in pairs)
        if rows > spare.shape[1]:
            # a block's share grew past the stack: the same allocation at
            # the new size, with every block's occupied rows
            S, spare = _basis_stack(rows, n, S[:, :max(tops)])
        advance(pairs, tops, dependent)
        thetas = [theta for theta, _ in pairs]
        R, res = residuals(False)
    count = int(np.dot([theta.size for theta in thetas], copies))
    if count < m:
        raise BreakdownError(
            f"iteration subspace degenerated to {count} directions, "
            f"fewer than the {m} requested")
    # the m smallest over all blocks and copies, each block's leading rows,
    # copied out; the basis is released before the result is returned, so
    # a ConvergenceError's traceback does not hold it (W, P and the fresh
    # M and K images live only inside the inner steps)
    owner, index, copy = (a[:m] for a in _merge(thetas, copies))
    X = np.zeros((n, m))
    for q, seg in enumerate(segs):
        cols = np.flatnonzero(owner == q)
        X[seg, cols] = S[0, index[cols], seg].T
    del S, spare, R
    found = np.array([labels[q][c] for q, c in zip(owner, copy)])
    pick = np.cumsum([0] + [t.size for t in thetas[:-1]])[owner] + index
    res = np.concatenate(res)[pick]
    return _checked(EigenResult(np.concatenate(thetas)[pick], X, res, it,
                                res <= tol, found),
                    "eigenpairs at indices", tol)


_BLOCK = 64


@dataclass
class BandedCholesky:
    """Lower Cholesky factor of a banded SPD matrix in dense diagonal blocks.

    The order is padded with identity rows to whole blocks.  ``inv_diag[j]``
    is L_jj⁻¹; ``coupling[j]`` is the bandwidth² corner (first rows, last
    columns) of L_{j,j−1}, its only nonzero part.
    """

    order: int
    bandwidth: int
    inv_diag: np.ndarray
    coupling: np.ndarray

    def solve(self, b):
        """Solve L Lᵀ x = b for a vector or column block."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.order:
            raise ValueError(f"factor of order {self.order} cannot solve an "
                             f"operand of length {b.shape[0]}")
        single = b.ndim == 1
        b = b[:, None] if single else b
        inv, C, bw = self.inv_diag, self.coupling, self.bandwidth
        nblk, size, _ = inv.shape
        y = np.zeros((nblk * size, b.shape[1]))
        y[:self.order] = b
        y = y.reshape(nblk, size, -1)
        for j in range(nblk):
            if j and bw:
                y[j, :bw] -= C[j] @ y[j - 1, -bw:]
            y[j] = inv[j] @ y[j]
        for j in range(nblk - 1, -1, -1):
            y[j] = inv[j].T @ y[j]
            if j and bw:
                y[j - 1, -bw:] -= C[j].T @ y[j, :bw]
        x = y.reshape(nblk * size, -1)[:self.order]
        return x[:, 0] if single else x


def _first_bad_pivot(block):
    """(index, value) of the first pivot ≤ 0 in the column loop on a dense
    block; the smallest pivot if round-off lets every one pass."""
    a = np.tril(block)
    pivots = np.empty(len(a))
    for k in range(len(a)):
        pivots[k] = a[k, k]
        if not pivots[k] > 0.0:
            return k, pivots[k]
        a[k:, k] /= np.sqrt(pivots[k])
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k + 1:, k])
    k = int(np.argmin(pivots))
    return k, pivots[k]


def _lower_inverse(L, bw):
    """Invert, in place, lower-triangular factors of bandwidth ``bw``
    stacked along any leading axes, each s×s with s a power of two.

    Each block [[P, 0], [C, Q]] is halved: its inverse is
    [[P⁻¹, 0], [−Q⁻¹ C P⁻¹, Q⁻¹]], and C is nonzero only in its bw×bw
    top-right corner.  P and Q of every block are inverted together, as one
    strided view with a new leading axis, down to 1×1 reciprocals.
    """
    size = L.shape[-1]
    if size == 1:
        np.reciprocal(L, out=L)
        return
    half = size // 2
    k = min(bw, half)
    corner = L[..., half:half + k, half - k:half].copy()
    step = L.strides[-2] * half + L.strides[-1] * half
    _lower_inverse(np.lib.stride_tricks.as_strided(
        L, (2,) + L.shape[:-2] + (half, half), (step,) + L.strides), bw)
    L[..., half:, :half] = -(L[..., half:, half:half + k] @ corner) \
        @ L[..., half - k:half, :half]


def cholesky_banded(A):
    """Banded Cholesky of a BandedSymMatrix; fails loudly on bad pivots.

    Factors dense diagonal blocks in order; block j's top-left corner first
    loses c cᵀ, where c = A_{j,j−1} corner · (trailing corner of L_{j−1})⁻ᵀ.
    Blocks are at least ``_BLOCK`` rows and a power of two, so
    :func:`_lower_inverse` can halve them.
    """
    n, bw = A.order, A.bandwidth
    size = max(_BLOCK, 1 << (bw - 1).bit_length())
    nblk = -(-n // size)
    diag = np.zeros((nblk, size, size))  # cholesky reads the lower triangle
    corner = np.zeros((nblk, bw, bw))
    for d in range(bw + 1):
        col = np.arange(n - d)
        blk, c = np.divmod(col, size)
        row_blk, r = np.divmod(col + d, size)
        vals = A.bands[d, :n - d]
        same = row_blk == blk
        diag[blk[same], r[same], c[same]] = vals[same]
        cross = ~same
        corner[row_blk[cross], r[cross], c[cross] - (size - bw)] = vals[cross]
    pad = np.arange(n, nblk * size) - (nblk - 1) * size
    diag[-1, pad, pad] = 1.0
    for j in range(nblk):  # diag[:j] already holds the factors L_ii
        if j and bw:
            coupling = np.linalg.solve(diag[j - 1, -bw:, -bw:], corner[j].T).T
            diag[j, :bw, :bw] -= coupling @ coupling.T
            corner[j] = coupling
        try:
            diag[j] = np.linalg.cholesky(diag[j])
        except np.linalg.LinAlgError:
            k, value = _first_bad_pivot(diag[j])
            raise FactorizationError(j * size + k, value) from None
    _lower_inverse(diag, bw)
    return BandedCholesky(n, bw, diag, corner)


def banded_smallest(A, B, start=None):
    """Smallest eigenpair of banded A x = λ B x by inverse block iteration.

    A and B must be positive definite.  Intended for orders up to ~1e4
    where the banded factorisation is cheap.  The starting block of
    min(6, order) columns is pseudo-random from ``FIRST_PAIR_SEED``; an
    (n, 1) ``start`` column, such as the eigenvector of a coarser pencil
    carried to this one, replaces its first column, and the others stay as
    drawn, as in :func:`smallest_eigenpairs`.  Each iteration solves with
    the factor of A on B·X, applies A and B once to the new block Y, and
    takes the next B·X from the Ritz combination of the (Y, A·Y, B·Y)
    stack, until the first pair passes ``FIRST_PAIR_TOL`` or the
    ``BANDED_MAXITER`` (300) budget runs out.  Because the two pencil norms
    may differ by the full h^(-4) conditioning of a fourth-order problem,
    that tolerance and the reported residual are backward errors
    ||A x − λ B x|| / ((||A||₁ + λ||B||₁)·||x||), not λ-relative norms,
    computed explicitly on the kept column.
    """
    n = A.order
    if B.order != n:
        raise ValueError("A and B must have equal order")
    start = _start_block(start, n, 1)
    factor = cholesky_banded(A)

    X = np.random.default_rng(FIRST_PAIR_SEED).standard_normal(
        (n, min(n, 6)))
    X[:, :start.shape[1]] = start
    BX = B.matvec(X).T
    del X
    norm_a, norm_b = A.norm1(), B.norm1()

    it = 0
    while True:
        it += 1
        Y = factor.solve(BX.T)
        Y /= np.maximum(np.linalg.norm(Y, axis=0), 1e-300)
        S = np.stack((Y.T, A.matvec(Y).T, B.matvec(Y).T))
        theta, C = _rayleigh_ritz(*S)
        X, BX = C.T @ S[::2]
        # scale-invariant residual: the pencil norms can be h^(-4) apart
        values, x = theta[:1], X[:1].T
        _, residuals = _residuals(
            A.matvec(x).T, B.matvec(x).T, values,
            (norm_a + np.abs(values) * norm_b) * np.linalg.norm(X[:1], axis=1))
        if np.all(residuals <= FIRST_PAIR_TOL) or it >= BANDED_MAXITER:
            break
    return _checked(EigenResult(values.copy(), x.copy(), residuals, it,
                                residuals <= FIRST_PAIR_TOL,
                                np.zeros(1, dtype=int)),
                    "banded eigenpairs", FIRST_PAIR_TOL)
