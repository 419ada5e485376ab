"""Counter-based random streams.

Every normal increment is a pure function of (seed, tag, particle, step,
component), so results never depend on scheduling or worker count, and two
runs with the same seed consume identical noise even if they interleave
differently.

The 64-bit mix is splitmix64, byte-for-byte:

    mix64(z):
        z = (z + 0x9E3779B97F4A7C15) mod 2^64
        z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        return z XOR (z >> 31)

Stream key:    key = mix64(seed XOR fnv1a64(tag))
Substream:     h   = mix64(mix64(mix64(key XOR p) XOR s) XOR c)
Uniform:       u   = ((h >> 11) + 0.5) * 2^-53          in (0, 1)
Normal:        z   = ndtri(u)

Here p, s, c are the particle, step and component indices as uint64.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def mix64(z):
    """splitmix64 mix of a uint64 scalar or array."""
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=np.uint64) + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def fnv1a64(text: str) -> np.uint64:
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for byte in text.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * _FNV_PRIME
    return h


def stream_key(seed: int, tag: str) -> np.uint64:
    return np.uint64(mix64(np.uint64(seed) ^ fnv1a64(tag)))


def substream_uint64(key, particles, steps, components):
    """Raw uint64 values for broadcastable index arrays."""
    p = np.asarray(particles, dtype=np.uint64)
    s = np.asarray(steps, dtype=np.uint64)
    c = np.asarray(components, dtype=np.uint64)
    h = mix64(np.uint64(key) ^ p)
    h = mix64(h ^ s)
    h = mix64(h ^ c)
    return h


def uniform_from_uint64(h):
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normal_increments(seed: int, tag: str, n_particles: int, n_steps: int,
                      n_components: int, dt: float) -> np.ndarray:
    """Brownian increments of shape (n_particles, n_steps, n_components).

    Each entry is N(0, dt), keyed by (seed, tag, particle, step, component).
    """
    from scipy.special import ndtri

    key = stream_key(seed, tag)
    p = np.arange(n_particles, dtype=np.uint64)[:, None, None]
    s = np.arange(n_steps, dtype=np.uint64)[None, :, None]
    c = np.arange(n_components, dtype=np.uint64)[None, None, :]
    h = substream_uint64(key, p, s, c)
    z = ndtri(uniform_from_uint64(h))
    return z * np.sqrt(dt)


def derived_seed(seed: int, index: int) -> int:
    """Deterministic child seed for the index-th independent cell of a sweep."""
    return int(mix64(np.uint64(seed) ^ mix64(np.uint64(index))))
