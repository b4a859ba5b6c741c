"""Seeded random instances: channels, measurements, states.

Channels are drawn from Stinespring data (an isometry into a dilated
output space, then the environment traced out), which guarantees CP+TP
by construction.  Everything takes a ``numpy.random.Generator`` so test
runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel, MeasurePrepare, Povm, SingularMapError, invert_map
from .linalg import HermitianMatrix, TensorShape

INVERTIBLE_TRIES = 50  # draws random_invertible_channel makes before it gives up


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_psd(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    return g @ g.conj().T


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    rho = random_psd(rng, d, rank)
    return rho / np.trace(rho).real


def random_channel(rng: np.random.Generator, d_in: int, d_out: int | None = None,
                   env: int | None = None) -> Channel:
    """CP+TP map from a Haar-random Stinespring isometry."""
    d_out = d_out or d_in
    env = env or d_in * d_out
    u = haar_unitary(rng, d_out * env)
    v = u[:, :d_in]  # isometry C^{d_in} -> C^{d_out} (x) C^{env}
    kraus = v.reshape(d_out, env, d_in).transpose(1, 0, 2)
    j = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
    for k in kraus:
        m = k.T.reshape(-1)
        j += np.outer(m, m.conj())
    return Channel.from_choi(j, d_in)


def random_invertible_channel(rng: np.random.Generator, d: int) -> Channel:
    """A ``random_channel`` whose map is invertible, from at most
    ``INVERTIBLE_TRIES`` draws."""
    for _ in range(INVERTIBLE_TRIES):
        c = random_channel(rng, d)
        try:
            invert_map(c.rep)
            return c
        except SingularMapError:
            continue
    raise RuntimeError("failed to draw an invertible channel")


def random_povm(rng: np.random.Generator, d: int, n: int) -> Povm:
    parts = [random_psd(rng, d) for _ in range(n)]
    total = sum(parts)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return Povm(tuple(inv_sqrt @ p @ inv_sqrt for p in parts))


def random_pvm(rng: np.random.Generator, d: int, ranks: tuple[int, ...] | None = None) -> Povm:
    """Projective measurement from the column blocks of a Haar unitary."""
    if ranks is None:
        ranks = (1,) * d
    if sum(ranks) != d:
        raise ValueError("projector ranks must partition the dimension")
    u = haar_unitary(rng, d)
    effects = []
    start = 0
    for r in ranks:
        cols = u[:, start : start + r]
        effects.append(cols @ cols.conj().T)
        start += r
    return Povm(tuple(effects))


def random_mp_channel(rng: np.random.Generator, d_in: int, d_out: int,
                      n: int) -> MeasurePrepare:
    povm = random_povm(rng, d_in, n)
    preps = tuple(random_density(rng, d_out) for _ in range(n))
    return MeasurePrepare(povm, preps)


def random_state_pair(rng: np.random.Generator, dx: int, d1: int, d2: int,
                      sigma_rank: int | None = None):
    """A compatible state pair: both marginals of one random joint state."""
    from .linalg import ptrace_array

    if sigma_rank is not None and sigma_rank < dx:
        # engineer a rank-deficient overlap by supporting the joint state
        # on a subspace of the overlap factor
        iso = haar_unitary(rng, dx)[:, :sigma_rank]
        big = np.kron(iso, np.eye(d1 * d2))
        rho = big @ random_density(rng, sigma_rank * d1 * d2) @ big.conj().T
    else:
        rho = random_density(rng, dx * d1 * d2)
    dims = (dx, d1, d2)
    rho1 = ptrace_array(rho, dims, [2])
    rho2 = ptrace_array(rho, dims, [1])
    sigma = ptrace_array(rho, dims, [1, 2])
    from .marginal import StatePair

    return StatePair(
        HermitianMatrix(rho1, TensorShape((dx, d1))),
        HermitianMatrix(rho2, TensorShape((dx, d2))),
        HermitianMatrix(sigma, TensorShape((dx,))),
    ), HermitianMatrix(rho, TensorShape(dims))
