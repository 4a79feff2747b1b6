"""The represented line identity and spectral gain-line obstructions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ValidationError
from .gain import GainFunction, gain_adjacency
from .group import require_central_weak_involution
from .phase import GPhase, PhaseContext, psi_line
from .representation import (UnitaryRepresentation, fourier,
                             hermitian_spectrum)

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
        return {
            "s2_class": self.s2_class,
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "violated": self.violated,
            "margin": self.margin,
            "spectrum": list(self.spectrum),
        }


def verify_line_identity(H: GPhase, rep: UnitaryRepresentation,
                         ctx: PhaseContext) -> float:
    """Max deviation between the two sides of the represented line identity.

    Left side: the represented adjacency of the line-graph gain of H.
    Right side: (I tensor pi(s2)) (FH* FH - 2I), assembled independently.
    """
    left = fourier(gain_adjacency(psi_line(H, ctx)), rep).data
    fh = fourier(H.to_cg_matrix(), rep).data
    k = rep.degree
    m = H.graph.m
    s2_block = np.kron(np.eye(m), rep.images[ctx.s2])
    right = s2_block @ (fh.conj().T @ fh - 2 * np.eye(k * m))
    if left.size == 0:
        return 0.0
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
    """
    if zeta.group != rep.group:
        raise ValidationError("representation defined on a different group")
    require_central_weak_involution(zeta.group, s2, "s2")
    s2_class = classify_s2_image(rep, s2, tol)
    spec = hermitian_spectrum(fourier(gain_adjacency(zeta), rep))
    lo, hi = spec.eigenvalues[0], spec.eigenvalues[-1]

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
                              float(margin), spec.eigenvalues)
