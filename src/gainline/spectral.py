"""The represented line identity and spectral gain-line obstructions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ValidationError
from .gain import GainFunction, gain_adjacency, s_laplacian
from .graph import line_roots
from .group import require_central_weak_involution
from .phase import GPhase, PhaseContext, psi, psi_line, recognize_gain_line
from .representation import (UnitaryRepresentation, _require_side, fourier,
                             represented_spectrum)

#: Slack between the exact +-2 bounds and numerical eigenvalues.
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class ObstructionVerdict:
    """Outcome of the spectral gain-line test.

    ``violated`` is None when no bound is breached; boundary eigenvalues at
    exactly +-2 are never violations, the bounds are closed intervals.
    """

    s2_class: str  # plus_identity | minus_identity | other
    min_eig: float
    max_eig: float
    violated: str | None  # cor1 | cor2 | gainline
    margin: float
    spectrum: tuple[float, ...]

    def to_dict(self) -> dict:
        # The fields, shared: dataclasses.asdict would deep-copy every eigenvalue.
        return dict(vars(self))


def verify_line_identity(H: GPhase, rep: UnitaryRepresentation,
                         ctx: PhaseContext) -> float:
    """Max deviation between the two sides of the represented line identity.

    Left side: the represented adjacency of the line-graph gain of H.
    Right side: (I tensor pi(s2)) (FH* FH - 2I), assembled independently.
    """
    left = fourier(gain_adjacency(psi_line(H, ctx)), rep)
    fh = fourier(H.to_cg_matrix(), rep)
    k = rep.degree
    m = H.graph.m
    s2_block = np.kron(np.eye(m), rep.images[ctx.s2])
    right = s2_block @ (fh.conj().T @ fh - 2 * np.eye(k * m))
    return float(np.abs(left - right).max())


def classify_s2_image(rep: UnitaryRepresentation, s2: int,
                      tol: float = DEFAULT_TOL) -> str:
    if not 0 <= tol < np.inf:
        raise InputError(f"tolerance must be finite and non-negative, got {tol!r}")
    if not 0 <= s2 < rep.group.order:
        raise ValidationError(f"element index out of range: {s2}")
    eye = np.eye(rep.degree)
    mat = rep.images[s2]
    if np.abs(mat - eye).max() <= tol:
        return "plus_identity"
    if np.abs(mat + eye).max() <= tol:
        return "minus_identity"
    return "other"


def gainline_obstruction(zeta: GainFunction, rep: UnitaryRepresentation,
                         s2: int, tol: float = DEFAULT_TOL) -> ObstructionVerdict:
    """Apply the spectral necessary conditions for being a gain-line graph.

    s2 must be a central weak involution, as the corollaries assume.
    One-sided rules fire when pi(s2) is (minus) the identity; the two-sided
    rule fires for irreducible representations regardless of s2, where
    irreducibility is decided from <chi, chi> when the representation is built.
    A clean verdict is only a necessary condition; recognition gives the
    exact decision.

    The spectrum of A = fourier(gain_adjacency(zeta), rep) is solved on the
    root side when pi(s2) is exactly eps I with eps = +-1, zeta's graph is
    the line graph of a root R with m_R > n_R (each labelled root that
    :func:`~gainline.graph.line_roots` finds is tried), and
    ``recognize_gain_line`` finds a phase H of R with psi_line(H) = zeta for
    (s1, s2) = (1, s2).  Then FH* FH = 2I + s2 A(zeta) and FH FH* = K =
    deg + A(psi(H)), the root's CG Laplacian, so A has the eigenvalues
    eps (lambda - 2) over the n_R k eigenvalues lambda of fourier(K, rep),
    within rounding of the dense solve, and (m_R - n_R) k eigenvalues
    -2 eps, written exactly.  Every other input takes the dense solve of A:
    pi(s2) only close to +-I or not +-I, a graph that is no line graph or
    whose edges are not sorted, m_R <= n_R, or no phase H.  The refusals
    come first either way, ``MAX_EIG_DIM`` counted on A's side.
    """
    if zeta.group != rep.group:
        raise ValidationError("representation defined on a different group")
    require_central_weak_involution(zeta.group, s2, "s2")
    s2_class = classify_s2_image(rep, s2, tol)
    n = zeta.graph.n
    _require_side(n, n, rep.degree)
    spec = _root_side_spectrum(zeta, rep, s2)
    if spec is None:
        spec = represented_spectrum(gain_adjacency(zeta), rep)
    lo, hi = spec[0], spec[-1]

    below = lo < -2 - tol
    above = hi > 2 + tol
    violated = None
    margin = 0.0
    if rep.irreducible and below and above:
        violated = "gainline"
        margin = min(-2 - lo, hi - 2)
    elif s2_class == "plus_identity" and below:
        violated = "cor1"
        margin = -2 - lo
    elif s2_class == "minus_identity" and above:
        violated = "cor2"
        margin = hi - 2
    return ObstructionVerdict(s2_class, float(lo), float(hi), violated,
                              float(margin), spec)


def _root_side_spectrum(zeta: GainFunction, rep: UnitaryRepresentation,
                        s2: int) -> tuple[float, ...] | None:
    """The spectrum of fourier(A(zeta), rep) through the root Laplacian, as
    :func:`gainline_obstruction` states it, or None where that does not apply."""
    eye = np.eye(rep.degree)
    image = rep.images[s2]
    eps = 1 if np.array_equal(image, eye) else -1 if np.array_equal(image, -eye) else 0
    if not eps:
        return None
    G = zeta.group
    ctx = PhaseContext(G, G.identity, s2)
    for root in line_roots(zeta.graph):
        H = recognize_gain_line(zeta, root, ctx) if root.m > root.n else None
        if H is not None:
            break
    else:
        return None
    K = s_laplacian(psi(H, ctx), G.identity)
    # eps lambda - 2 eps rather than eps (lambda - 2): no -0.0 at lambda = 2
    return tuple(sorted([eps * lam - 2 * eps for lam in represented_spectrum(K, rep)]
                        + [-2.0 * eps] * ((root.m - root.n) * rep.degree)))
