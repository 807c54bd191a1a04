"""Discretisation of Δu + α grad(div u) on axis-aligned boxes.

Multilinear (tensor-product first-order) elements on a uniform grid, with
the Dirichlet boundary eliminated, give the generalized pencil

    K(α) x = σ M x,   K(α) = K_lap + α K_div,

where K_lap is the componentwise stiffness of ∫∇u:∇v, K_div the Gram matrix
of ∫(div u)(div v), and M the consistent vector mass.  K_div couples the
components through skew convection factors, so everything is assembled from
Kronecker products of three exact 1D tridiagonal matrices: the quadratic
form is discretised, never the strong operator, which keeps K(α) exactly
symmetric.  Degrees of freedom are component-major; within a component,
nodes are lexicographic with the last coordinate fastest.
:class:`ElasticityProblem` is the one description of that layout:
interior nodes per axis, spacings and order.

One term table (:func:`_terms`, :func:`_stencils_1d`) feeds two forms of
the pencil.  :func:`assemble` builds it as CSR in nodal coordinates, for
the Matrix Market export.  The eigensolver works in sine coordinates, an
orthonormal sine matrix along every axis, where every symmetric 1D factor
is diagonal (Lynch, Rice & Thomas, Numer. Math. 6, 1964): M and K(0) are
one multiply by their symbols, and only the α-scaled grad-div couplings
C ⊗ Cᵀ are dense.  Those join only coefficients of one reflection-parity
class (:func:`_parity_classes`; up to 4 classes in 2D, 8 in 3D), so with
the coefficients ordered class-major K̂ and M̂ are block-diagonal, and
each coupling is, per class, one matmul with an off-parity sub-block of
S·C·S along each of two axes (:func:`box_operators`).  Axes with equal
edges and cells make some classes images of others under a permutation
of axes and components, with the same spectrum (:func:`class_orbits`:
orbits of 2 on a square, of 3 on a cube), so the solver takes one class
per orbit.  :func:`box_operators` builds each axis's 1D sine factors once
and lays K̂, M̂ and K̂₀ = K(0) out on those classes alone from that one
table (:func:`_operator`).  The preconditioner has two layers: the exact
inverse of K(0), a division by K̂₀'s symbol (:func:`laplacian_inverse`),
and Chebyshev steps for K(α) on [1, 1+α] around it (:func:`chebyshev`).
Every box solve starts from :func:`galerkin_start`: per class, the Ritz
vectors of K̂ restricted to the class's lowest sine modes
(:meth:`SineOperator.restrict`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import BreakdownError
from .sparse import SparseSymMatrix


@dataclass(frozen=True)
class ElasticityProblem:
    """Box domain, coupling constant and mesh resolution, and the layout
    of the degrees of freedom: the boundary is eliminated, so ``nodes`` =
    Π ``interior`` per component and ``order`` in all."""

    edges: tuple[float, ...]
    alpha: float
    cells: tuple[int, ...]

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        cells = tuple(int(c) for c in self.cells)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "cells", cells)
        if self.dim not in (2, 3):
            raise ValueError("only 2D and 3D boxes are supported")
        if len(cells) != self.dim:
            raise ValueError(
                f"mesh.cells must list one resolution per direction of "
                f"domain.edges: {len(cells)} for {self.dim}")
        if not all(0 < e < math.inf for e in edges):
            raise ValueError("edges must be positive and finite")
        if any(c < 2 for c in cells):
            raise ValueError("need at least 2 cells per direction "
                             "(one interior node)")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and non-negative")

    @property
    def dim(self):
        return len(self.edges)

    @property
    def interior(self):
        return tuple(c - 1 for c in self.cells)

    @property
    def spacings(self):
        return tuple(e / c for e, c in zip(self.edges, self.cells))

    @property
    def nodes(self):
        return math.prod(self.interior)

    @property
    def order(self):
        return self.dim * self.nodes

    def refined(self):
        return ElasticityProblem(self.edges, self.alpha,
                                 tuple(2 * c for c in self.cells))

    def mesh_label(self):
        return "x".join(str(c) for c in self.cells)


def _stencils_1d(h):
    """(lower, diag, upper) of the interior P1 tridiagonals on a uniform grid.

    K is the stiffness, M the mass, C the convection ∫φ'ψ and Ct its
    transpose; every one is constant along its diagonals.
    """
    return {"K": (-1.0 / h, 2.0 / h, -1.0 / h),
            "M": (h / 6.0, 4.0 * h / 6.0, h / 6.0),
            "C": (0.5, 0.0, -0.5),
            "Ct": (-0.5, 0.0, 0.5)}


def _terms(problem):
    """Kronecker terms (row comp, col comp, scale, kinds) of K_lap, α·K_div, M.

    ``kinds`` names the 1D factor on each axis (a key of
    :func:`_stencils_1d`).  K(α) is the Laplacian terms followed by the
    divergence terms, which are absent when α = 0.
    """
    dim, alpha = problem.dim, problem.alpha

    def kinds(*on_axes):
        out = ["M"] * dim
        for axis, kind in on_axes:
            out[axis] = kind
        return tuple(out)

    lap_terms = [(c, c, 1.0, kinds((d, "K")))
                 for c in range(dim) for d in range(dim)]
    div_terms = []
    if alpha > 0:
        div_terms += [(c, c, alpha, kinds((c, "K"))) for c in range(dim)]
        for ca in range(dim):
            for cb in range(ca + 1, dim):
                # block (ca, cb) of the divergence Gram:
                # ∫ (d phi/dx_ca)(d psi/dx_cb) = C_ca ⊗ Ct_cb ⊗ masses
                div_terms.append((ca, cb, alpha,
                                  kinds((ca, "C"), (cb, "Ct"))))
                div_terms.append((cb, ca, alpha,
                                  kinds((ca, "Ct"), (cb, "C"))))
    mass_terms = [(c, c, 1.0, ("M",) * dim) for c in range(dim)]
    return lap_terms, div_terms, mass_terms


def _coo_1d(n, lower, diag, upper):
    """COO triplets of an n x n tridiagonal with constant diagonals."""
    idx = np.arange(n)
    rows = np.concatenate([idx, idx[1:], idx[:-1]])
    cols = np.concatenate([idx, idx[:-1], idx[1:]])
    vals = np.concatenate([np.full(n, diag),
                           np.full(n - 1, lower),
                           np.full(n - 1, upper)])
    return rows, cols, vals


def _kron(a, b, nb):
    """Kronecker product of COO triplets; b indexes the faster axis."""
    ra, ca, va = a
    rb, cb, vb = b
    rows = (ra[:, None] * nb + rb[None, :]).ravel()
    cols = (ca[:, None] * nb + cb[None, :]).ravel()
    vals = (va[:, None] * vb[None, :]).ravel()
    return rows, cols, vals


def _csr(problem, terms):
    """Sum of Kronecker terms as a SparseSymMatrix."""
    stencils = [_stencils_1d(h) for h in problem.spacings]
    rows, cols, vals = [], [], []
    for row, col, scale, kinds in terms:
        factors = [_coo_1d(n, *stencils[d][kind]) for d, (n, kind)
                   in enumerate(zip(problem.interior, kinds))]
        r, c, v = factors[0]
        for fac, n in zip(factors[1:], problem.interior[1:]):
            r, c, v = _kron((r, c, v), fac, n)
        rows.append(r + row * problem.nodes)
        cols.append(c + col * problem.nodes)
        vals.append(v * scale)
    return SparseSymMatrix.from_coo(problem.order, np.concatenate(rows),
                                    np.concatenate(cols),
                                    np.concatenate(vals))


def assemble(problem):
    """Assemble (K, M, problem) for the generalized eigenproblem as CSR.

    K = K_lap + alpha*K_div and M are exactly symmetric; the generalized
    eigenvalues approximate the continuous ones at O(h²) for smooth
    eigenfunctions.  The solver applies the same terms in sine coordinates
    (see :func:`box_operators`); the CSR form serves the Matrix Market
    export and the tests.  The problem, returned third, is the layout of
    their rows (:class:`ElasticityProblem`).
    """
    lap_terms, div_terms, mass_terms = _terms(problem)
    return (_csr(problem, lap_terms + div_terms), _csr(problem, mass_terms),
            problem)


def _sine_matrix(n):
    """Orthonormal type-I sine matrix √(2/(n+1))·sin(π i j/(n+1)), i, j = 1..n.

    It is symmetric and its own inverse.
    """
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))


def _sine_factor(S, lower, diag, upper):
    """A 1D factor in the sine basis: S·A·S for A = (lower, diag, upper).

    A symmetric factor becomes its symbol, the (n,) diagonal diag +
    2·lower·cos(jπ/(n+1)) at frequency j (Lynch, Rice & Thomas, Numer.
    Math. 6, 1964); any other factor the dense n×n matrix S·A·S.
    """
    n = len(S)
    if lower == upper:
        return diag + 2.0 * lower * np.cos(np.arange(1, n + 1) * np.pi
                                           / (n + 1))
    A = diag * np.eye(n) + lower * np.eye(n, k=-1) + upper * np.eye(n, k=1)
    return S @ A @ S


def _along(A, y, axis):
    """A applied along ``axis`` of y, one matmul over the other axes."""
    if axis == y.ndim - 1:
        return (y.reshape(-1, y.shape[-1]) @ A.T).reshape(
            y.shape[:-1] + (len(A),))
    lead = math.prod(y.shape[:axis])
    return (A @ y.reshape(lead, y.shape[axis], -1)).reshape(
        y.shape[:axis] + (len(A),) + y.shape[axis + 1:])


def _parity(p):
    """The frequencies j = p + 1, p + 3, … of one axis: its parity p."""
    return slice(p, None, 2)


def _parity_classes(problem):
    """Class-major layout of the sine coordinates.

    Component c's coefficient with frequency parities p (p_d = j_d − 1 mod
    2 along axis d) belongs to class q = p XOR e_c.  The reflection
    x_d ↦ L_d − x_d flips the sign of component d and multiplies the sine
    of frequency j_d by (−1)^(j_d − 1), so class q is where every
    reflection d acts as (−1)^(q_d).  K(α) and M commute with the
    reflections, so they couple no two classes.  Returns the pieces: one
    (class, component, parities, start, size) per non-empty component
    grid, classes in lexicographic order, components within them, each
    grid lexicographic from ``start``.
    """
    pieces, start = [], 0
    for q in itertools.product((0, 1), repeat=problem.dim):
        for c in range(problem.dim):
            par = tuple(p ^ (d == c) for d, p in enumerate(q))
            size = math.prod((n + 1 - p) // 2
                             for n, p in zip(problem.interior, par))
            if size:
                pieces.append((q, c, par, start, size))
                start += size
    return pieces


def _gather(grid, pieces):
    """The entries of a component-major (dim,) + interior array at the
    coordinates of ``pieces``, in their order."""
    return np.concatenate([grid[(c,) + tuple(map(_parity, par))].ravel()
                           for _, c, par, _, _ in pieces])


class SineOperator:
    """A sum of Kronecker terms in class-major sine coordinates.

    Terms with symmetric factors only are diagonal there and merge into
    ``diagonal``.  The others are grad-div couplings, which join only
    coefficients of one parity class (:func:`_parity_classes`), so the
    operator is block-diagonal with ``blocks`` as its block sizes, which
    ``classes`` labels (:class:`ClassOrbits`): the layout LOBPCG solves.  A
    coupling (source, target, shape, weight, dense) reads the coefficient
    slice ``source`` as a grid of ``shape``, multiplies it by ``weight``
    (the symbols of its diagonal axes, or None) and by the (axis, matrix)
    factors in ``dense``, the off-parity sub-blocks of S·C·S, and adds it
    to slice ``target``.  ``matvec`` works on the operand's rows, so the
    transposed row views LOBPCG passes need no copy.
    """

    def __init__(self, diagonal, couplings, blocks, classes):
        self.diagonal = diagonal
        self.couplings = tuple(couplings)
        self.blocks = blocks
        self.classes = classes
        self.order = diagonal.size

    def matvec(self, x):
        """A @ x for a vector (n,) or a block of vectors (n, b)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.order:
            raise ValueError("operand has wrong leading dimension")
        # row-major, so the per-class grid views below reach BLAS
        rows = np.ascontiguousarray(np.atleast_2d(x.T))
        out = np.multiply(rows, self.diagonal, out=np.empty(rows.shape))
        b = len(rows)
        for source, target, shape, weight, dense in self.couplings:
            y = rows[:, source].reshape((b,) + shape)
            if weight is not None:
                y = y * weight
            for axis, A in dense:
                y = _along(A, y, axis + 1)
            out[:, target] += y.reshape(b, -1)
        return out.T.reshape(x.shape)

    def restrict(self, index):
        """The dense restriction A[index][:, index], entry by entry.

        A coupling's entry joining target grid point t and source point s
        is its weight at s times, per axis, the dense factor's (t_d, s_d)
        entry, or δ(t_d, s_d) on an axis without one; no operand is
        applied, so this costs len(index)² per coupling, not an order-n
        apply per column.
        """
        index = np.asarray(index)
        out = np.diag(self.diagonal[index])
        for source, target, shape, weight, dense in self.couplings:
            rows = np.flatnonzero((index >= target.start)
                                  & (index < target.stop))
            cols = np.flatnonzero((index >= source.start)
                                  & (index < source.stop))
            if not (rows.size and cols.size):
                continue
            factors = dict(dense)
            t = np.unravel_index(index[rows] - target.start, tuple(
                len(factors[d]) if d in factors else n
                for d, n in enumerate(shape)))
            s = np.unravel_index(index[cols] - source.start, shape)
            entry = np.ones((rows.size, cols.size))
            if weight is not None:
                entry *= np.broadcast_to(weight, shape)[s]
            for d, (td, sd) in enumerate(zip(t, s)):
                entry *= (factors[d][np.ix_(td, sd)] if d in factors
                          else np.equal.outer(td, sd))
            out[np.ix_(rows, cols)] += entry
        return out


def sine_factors(problem):
    """The table of 1D factors in the sine basis: per axis, the
    :func:`_sine_factor` of each :func:`_stencils_1d` kind."""
    return [{kind: _sine_factor(S, *stencil)
             for kind, stencil in _stencils_1d(h).items()}
            for S, h in zip(map(_sine_matrix, problem.interior),
                            problem.spacings)]


def _operator(factors, terms, orbits):
    """SineOperator of Kronecker terms (row comp, col comp, scale, kinds)
    laid out on the pieces of ``orbits``, a :class:`ClassOrbits`, and
    labelled with its classes.  ``factors[d][kind]`` is axis d's 1D factor
    in the sine basis, the table :func:`sine_factors` builds."""
    shape = tuple(len(f["M"]) for f in factors)
    grids, blocks = {}, {}
    for q, c, par, start, size in orbits.pieces:
        grids[q, c] = (par, slice(start, start + size))
        blocks[q] = blocks.get(q, 0) + size
    diagonal = np.zeros((len(factors),) + shape)
    couplings = []
    for row, col, scale, kinds in terms:
        fs = [factors[d][kind] for d, kind in enumerate(kinds)]
        dense = [(d, f) for d, f in enumerate(fs) if f.ndim == 2]
        weight = scale * math.prod(np.ix_(*[f if f.ndim == 1 else np.ones(1)
                                            for f in fs]))
        if not dense:  # symmetric factors only, so row == col
            diagonal[row] += weight
            continue
        if weight.size == 1:  # no diagonal axis: scale the first matrix
            (d, A), *rest = dense
            dense, weight = [(d, weight.item() * A), *rest], None
        for q in blocks:
            if (q, col) not in grids or (q, row) not in grids:
                continue
            (src, source), (dst, target) = grids[q, col], grids[q, row]
            # only the off-parity entries of S·C·S are nonzero
            parts = tuple((d, np.ascontiguousarray(
                A[_parity(dst[d]), _parity(src[d])])) for d, A in dense)
            grid = tuple((n + 1 - p) // 2 for n, p in zip(shape, src))
            w = None if weight is None else weight[tuple(
                _parity(p) if f.ndim == 1 else slice(None)
                for p, f in zip(src, fs))]
            couplings.append((source, target, grid, w, parts))
    return SineOperator(_gather(diagonal, orbits.pieces), couplings,
                        tuple(blocks.values()), orbits.classes)


def box_operators(problem):
    """(K̂, M̂, K̂₀): the pencil the solver iterates, and K(0), on the
    classes it keeps, all three from one table of 1D sine factors per axis.

    K̂ = Q·K·Qᵀ, M̂ = Q·M·Qᵀ and K̂₀ = Q·K(0)·Qᵀ, with K, M, K(0) the terms
    of :func:`assemble` and Q the orthogonal map from nodal values to
    class-major sine coordinates: the orthonormal sine matrix along every
    axis of each component, then the coefficients ordered class by class
    (:func:`_parity_classes`).  They are laid out on the rows and columns
    of the classes :func:`class_orbits` keeps (all of them on a box without
    equal axes), block-diagonal over those classes (``K̂.blocks``), each
    labelled with its orbit (``K̂.classes``).  M̂ and K̂₀ are diagonal;
    only K̂'s α-scaled grad-div couplings stay dense, per class one matmul
    with an off-parity ⌈n/2⌉×⌊n/2⌋ sub-block of S·C·S along each of their
    two axes.
    """
    factors = sine_factors(problem)
    orbits = class_orbits(problem)
    lap_terms, div_terms, mass_terms = _terms(problem)
    return (_operator(factors, lap_terms + div_terms, orbits),
            _operator(factors, mass_terms, orbits),
            _operator(factors, lap_terms, orbits))


@dataclass(frozen=True)
class ClassOrbits:
    """The parity classes of a box grouped by its axis symmetries.

    ``classes`` lists per orbit the numbers of its non-empty classes (class
    q is number Σ_d q_d·2^(dim−1−d), its place in lexicographic order), its
    representative, the lowest, first.  The solver iterates the
    representatives alone: ``pieces`` are their component grids as
    :func:`_parity_classes` lists them, with each ``start`` in these
    reduced coordinates, the representatives' class-major sine
    coordinates concatenated in class-major order.
    """

    classes: tuple[tuple[int, ...], ...]
    pieces: tuple[tuple, ...]


def class_orbits(problem):
    """The orbits of the parity classes under the box's axis permutations.

    A permutation π of the axes that keeps every (edge, cells) pair maps
    the mesh onto itself.  Permuting the components with the axes, u ↦
    P_π·u∘P_π⁻¹, then keeps K(α) and M, and carries component c's sine
    mode of frequencies j onto component π(c)'s mode of frequencies j′,
    j′_π(d) = j_d, with no sign: class q goes to q′, q′_π(d) = q_d, and the
    two classes share their spectrum.  Squares give the orbit
    {(0,1), (1,0)}, cubes {001, 010, 100} and {011, 101, 110}, boxes with
    two equal axes two orbits of two, and other boxes none.  The orbits
    come from the classes' parity tuples alone; no coordinate is moved.
    """
    dim, pieces = problem.dim, _parity_classes(problem)
    axes = tuple(zip(problem.edges, problem.cells))
    perms = [p for p in itertools.permutations(range(dim))
             if all(axes[p[d]] == axes[d] for d in range(dim))]
    orbits = {}  # representative -> the classes of its orbit
    for q, *_ in pieces:
        if all(q not in orbit for orbit in orbits.values()):
            orbits[q] = {tuple(q[p.index(e)] for e in range(dim))
                         for p in perms}
    reduced, stop = [], 0
    for q, c, par, _, size in pieces:
        if q in orbits:
            reduced.append((q, c, par, stop, size))
            stop += size
    number = {q: int("".join(map(str, q)), 2) for q, *_ in pieces}
    return ClassOrbits(
        tuple(tuple(number[g] for g in sorted(orbit))
              for orbit in orbits.values()), tuple(reduced))


def galerkin_start(K, M, m):
    """An (n, m) starting block from each class's lowest sine modes.

    (K, M) is :func:`box_operators`' pair, so M̂ is diagonal.  Each parity
    class takes its L = min(2m, class size) modes of smallest
    K̂.diagonal / M̂.diagonal (ties by position), restricts K̂ to them
    (:meth:`SineOperator.restrict`), whitens by M̂^(-1/2) and takes the
    Ritz vectors of the L×L pencil by ``eigh``.  Column i holds every
    class's i-th Ritz vector on that class's rows, M̂-normalised, in
    class-major sine coordinates.  At α = 0 K̂ is diagonal, so these are
    the exact lowest eigenvectors of every class.  A failed ``eigh`` (on
    over- or underflowed entries) raises :class:`BreakdownError`.
    """
    X = np.zeros((K.order, m))
    ratio = K.diagonal / M.diagonal
    stop = 0
    for size in K.blocks:
        first, stop = stop, stop + size
        modes = first + np.argsort(ratio[first:stop],
                                   kind="stable")[:min(2 * m, size)]
        scale = 1.0 / np.sqrt(M.diagonal[modes])
        try:
            _, V = np.linalg.eigh(scale[:, None] * K.restrict(modes) * scale)
        except np.linalg.LinAlgError as err:
            raise BreakdownError(f"Galerkin start failed: {err}") from None
        k = min(m, len(modes))
        X[modes, :k] = scale[:, None] * V[:, :k]
    return X


def laplacian_inverse(K0):
    """Exact inverse of the α = 0 stiffness K(0), the inner preconditioner.

    ``K0`` is :func:`box_operators`' K̂₀: in sine coordinates every
    Laplacian term is diagonal, so K(0)⁻¹ is a division by ``K0.diagonal``,
    the summed symbols of K(0)'s terms (fast diagonalisation); nothing is
    built here.  Returns the apply callable, which takes a vector (n,) or a
    block (n, b) in the coordinates of :func:`box_operators`.
    """
    inverse = 1.0 / K0.diagonal
    return lambda x: (np.asarray(x, dtype=np.float64).T * inverse).T


def _chebyshev_steps(alpha):
    """Smallest k >= 1 with T_k((2+α)/α) >= 3; 1 at α = 0.

    k steps on [1, 1+α] leave a residual polynomial bounded by 1/T_k, so
    the preconditioned spectrum lies in [2/3, 4/3].  T_k(σ) = cosh(k·arcosh
    σ) for σ >= 1, so k = ⌈arcosh 3 / arcosh σ⌉, about 0.88·√α.  Once
    (2+α)/α rounds to 1 (α >= 2⁵⁴), no k exists.
    """
    if alpha == 0:
        return 1
    sigma = (2.0 + alpha) / alpha
    if sigma == 1.0:
        raise ValueError(f"alpha = {alpha:g} is too large for the "
                         f"Chebyshev steps: (2+alpha)/alpha rounds to 1")
    return math.ceil(math.acosh(3.0) / math.acosh(sigma))


def chebyshev(K, inner, alpha):
    """Chebyshev-accelerated preconditioner for K(α) around K(0)⁻¹.

    For u in H¹₀, ∫|∇u|² = ∫|div u|² + ∫|curl u|², so the conforming fields
    give K(0) <= K(α) <= (1+α) K(0) and spec(K(0)⁻¹K(α)) ⊂ [1, 1+α].  The
    apply runs k steps of Chebyshev iteration for K z = r from z = 0 on that
    interval, with ``inner`` (K(0)⁻¹) as the preconditioner (Saad,
    *Iterative Methods for Sparse Linear Systems*, Alg. 12.1).  It is a
    fixed polynomial in K(0)⁻¹K times K(0)⁻¹: symmetric, positive definite
    and deterministic.  k comes from α alone (:func:`_chebyshev_steps`);
    with k = 1 ``inner`` itself is returned.  The apply leaves its operand
    unchanged and holds four blocks of its shape, z, d, r and one
    ``inner(r)``, updated in place: the same bits as the recurrence that
    allocates every step, in the layout ``inner`` returns.
    """
    steps = _chebyshev_steps(alpha)
    if steps == 1:
        return inner
    delta = 0.5 * alpha
    theta = 1.0 + delta
    sigma = theta / delta

    def apply(r):
        rho = 1.0 / sigma
        d = inner(r)
        d /= theta
        # in the layout inner gives, which the caller's reductions see
        z = d.copy(order="K")
        for _ in range(steps - 1):
            # into K·d's block, so the operand is never written
            Kd = K.matvec(d)
            r = np.subtract(r, Kd, out=Kd)
            rho_next = 1.0 / (2.0 * sigma - rho)
            d *= rho_next * rho
            step = inner(r)
            step *= 2.0 * rho_next / delta
            d += step
            del step
            rho = rho_next
            z += d
        return z

    return apply


def reference_spectrum_alpha0(edges, count):
    """First ``count`` eigenvalues of the decoupled α = 0 problem.

    They are the Dirichlet Laplacian values Σ_j (m_j π / L_j)², m_j >= 1,
    each repeated dim times (one per vector component), sorted ascending.
    """
    edges = tuple(float(e) for e in edges)
    if count < 1:
        raise ValueError("count must be >= 1")
    dim = len(edges)
    base = [(np.pi / e) ** 2 for e in edges]
    # lazy enumeration of lattice sums via a heap over index tuples
    start = tuple([1] * dim)
    heap = [(sum(base), start)]
    seen = {start}
    values = []
    while len(values) < count:
        val, idx = heapq.heappop(heap)
        values.extend([val] * dim)
        for d in range(dim):
            nxt = list(idx)
            nxt[d] += 1
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (sum(b * m * m
                                          for b, m in zip(base, nxt)), nxt))
    return np.array(values[:count])
