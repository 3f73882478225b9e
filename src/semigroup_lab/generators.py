"""The GKLS standard form on finite truncations.

A generator is specified by a contraction-semigroup generator K and a list
of jump operators L_a, acting as

    G(rho) = K rho + rho K* + sum_a L_a rho L_a*,

subject to the dissipativity constraint K + K* + sum_a L_a* L_a <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import as_operator

DISSIPATIVITY_TOL = 1e-10


@dataclass(frozen=True)
class StandardGeneratorSpec:
    """No-event part K plus jump operators, all cut to the same truncation.

    The constraint K + K* + sum L*L <= 0 (up to DISSIPATIVITY_TOL, relative
    to the matrix scale) is enforced at construction.
    """

    K: np.ndarray
    jumps: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "K", as_operator(self.K))
        object.__setattr__(self, "jumps", tuple(as_operator(l) for l in self.jumps))
        n = self.K.shape[0]
        for l in self.jumps:
            if l.shape != (n, n):
                raise ValueError("jump operator dimension does not match K")
        d = dissipativity_check(self)
        top = float(np.linalg.eigvalsh(0.5 * (d + d.conj().T)).max())
        if top > DISSIPATIVITY_TOL * max(1.0, np.abs(d).max()):
            raise ValueError(
                f"not dissipative: max eigenvalue of K + K* + sum L*L is {top:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.K.shape[0]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply_standard(self, rho)

    def superop_matrix(self, dim: int):
        """Row-major matrix K(x)I + I(x)conj(K) + sum_a L_a(x)conj(L_a) as a
        sparse CSR array, built without calling the generator (Havel 2003,
        J. Math. Phys. 44, 534): entry (a*dim + b, i*dim + j) is the
        coefficient of rho[i, j] in G(rho)[a, b].
        """
        from scipy.sparse import csr_array, identity, kron

        if dim != self.dim:
            raise ValueError(f"operator dim {dim} does not match spec dim {self.dim}")
        eye = identity(dim, dtype=complex)
        m = kron(self.K, eye) + kron(eye, self.K.conj())
        for l in self.jumps:
            m = m + kron(l, l.conj())
        return csr_array(m)


def _check_dim(spec: StandardGeneratorSpec, rho: np.ndarray) -> np.ndarray:
    rho = as_operator(rho)
    if rho.shape[0] != spec.dim:
        raise ValueError(f"operator dim {rho.shape[0]} does not match spec dim {spec.dim}")
    return rho


def apply_no_event(spec: StandardGeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """No-event part K rho + rho K*."""
    rho = _check_dim(spec, rho)
    return spec.K @ rho + rho @ spec.K.conj().T


def apply_jump(spec: StandardGeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """Completely positive jump part sum_a L_a rho L_a*."""
    rho = _check_dim(spec, rho)
    out = np.zeros_like(rho)
    for l in spec.jumps:
        out += l @ rho @ l.conj().T
    return out


def apply_standard(spec: StandardGeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """Full generator action: no-event part plus jump part."""
    return apply_no_event(spec, rho) + apply_jump(spec, rho)


def dissipativity_check(spec: StandardGeneratorSpec) -> np.ndarray:
    """K + K* + sum_a L_a* L_a; all eigenvalues must be <= 0 for a valid spec."""
    d = spec.K + spec.K.conj().T
    for l in spec.jumps:
        d = d + l.conj().T @ l
    return d


def gauge_transform(spec: StandardGeneratorSpec, lambdas, beta: float = 0.0
                    ) -> StandardGeneratorSpec:
    """Reshuffle (K, L_a) by scalars without changing the generator.

    L'_a = L_a + lambda_a, K' = K - sum_a conj(lambda_a) L_a
    + (i*beta - sum_a |lambda_a|^2) / 2.  The combination leaves
    apply_standard and dissipativity_check invariant identically.
    """
    lambdas = [complex(lam) for lam in lambdas]
    if len(lambdas) != len(spec.jumps):
        raise ValueError("need one gauge scalar per jump operator")
    n = spec.dim
    eye = np.eye(n, dtype=complex)
    k = spec.K + 0.5 * (1j * float(beta) - sum(abs(lam) ** 2 for lam in lambdas)) * eye
    for lam, l in zip(lambdas, spec.jumps):
        k = k - np.conj(lam) * l
    new_jumps = tuple(l + lam * eye for lam, l in zip(lambdas, spec.jumps))
    return StandardGeneratorSpec(K=k, jumps=new_jumps)


def forward_form_residual(spec: StandardGeneratorSpec, omega: np.ndarray,
                          f, g) -> float:
    """Defect of the forward master equation in the sandwiched form.

    Returns |<f|(G omega)g> - <K*f|omega g> - <f|omega K*g>
    - sum_a <L_a* f|omega L_a* g>|, which vanishes identically on the
    truncation.
    """
    omega = _check_dim(spec, omega)
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != (spec.dim,) or g.shape != (spec.dim,):
        raise ValueError("f and g must be vectors matching the spec dimension")
    lhs = f.conj() @ apply_standard(spec, omega) @ g
    rhs = f.conj() @ spec.K @ omega @ g + f.conj() @ omega @ spec.K.conj().T @ g
    for l in spec.jumps:
        rhs += f.conj() @ l @ omega @ l.conj().T @ g
    return float(abs(lhs - rhs))
