"""Deterministic random-number management.

Every stochastic component in this library accepts either an integer seed or
a :class:`numpy.random.Generator`.  Components that need several independent
streams (one per device, one per round, ...) derive them through
:class:`SeedSequenceFactory` so that

* results are bit-for-bit reproducible given a root seed, and
* adding a consumer never perturbs the streams of existing consumers
  (streams are keyed, not drawn in sequence).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["as_generator", "spawn_generators", "SeedSequenceFactory"]

# numpy's SeedSequence arithmetic (numpy/random/bit_generator.pyx): a pool
# of four 32-bit words filled and cross-mixed with ``hashmix`` (INIT_A /
# MULT_A) and ``mix`` (MIX_L / MIX_R), read out by ``generate_state``
# (INIT_B / MULT_B).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _step_consts(hash_const: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The ``(xor, multiply)`` constants of ``n`` consecutive hash steps
    from ``hash_const``, and the constant after them.  The constants
    advance independently of the words hashed, so one list serves every
    key of a call."""
    xor, mul = [], []
    for _ in range(n):
        xor.append(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        mul.append(hash_const)
    return np.array(xor, np.uint32), np.array(mul, np.uint32), hash_const


#: ``generate_state(4, uint64)``'s readout: eight 32-bit words cycling over
#: the pool, each with its own step constants.
_OUT_XOR, _OUT_MUL, _ = _step_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_OUT_CYCLE = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a nondeterministically seeded generator; an existing
    generator is returned unchanged (not copied).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(
    seed: int | np.random.Generator | None, n: int
) -> list[np.random.Generator]:
    """Return ``n`` statistically independent generators derived from ``seed``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the generator's own stream.
        children = seed.spawn(n)
        return list(children)
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


class SeedSequenceFactory:
    """Keyed derivation of independent random streams from one root seed.

    Unlike sequential ``spawn`` calls, streams are derived from a *key* (any
    sequence of integers), so the stream observed by a consumer depends only
    on its key, never on how many other consumers exist or the order in which
    they were created.

    Example
    -------
    >>> factory = SeedSequenceFactory(42)
    >>> rng_device_3_round_7 = factory.generator(3, 7)
    >>> rng_device_3_round_7.integers(10)  # doctest: +SKIP
    """

    def __init__(self, root_seed: int | None = 0) -> None:
        if root_seed is not None and root_seed < 0:
            raise ValueError(f"root_seed must be non-negative, got {root_seed}")
        self.root_seed = root_seed
        # The root-only part of SeedSequence's entropy mixing is the same
        # for every key, so it runs once: the keyless SeedSequence's pool
        # is exactly it (the root words hashed into the pool, the all-pairs
        # mix, then any root words beyond the pool), and key words mix in
        # after it.  Its hash constant has advanced one step per pool word
        # filled, per ordered pair mixed and per pool word per extra root
        # word.
        base = root_seed or 0
        self._root_pool = np.random.SeedSequence(base).pool
        extra = max(0, -(-base.bit_length() // 32) - _POOL_SIZE)
        _, _, self._root_hash = _step_consts(
            _INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * extra
        )
        # Per key width: the (width, pool) xor / multiply hash constants.
        self._key_consts: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def seed_sequence(self, *key: int) -> np.random.SeedSequence:
        """Return the :class:`~numpy.random.SeedSequence` for ``key``."""
        base = self.root_seed if self.root_seed is not None else 0
        return np.random.SeedSequence(entropy=base, spawn_key=tuple(key))

    def generator(self, *key: int) -> np.random.Generator:
        """Return an independent generator keyed by ``key``."""
        return np.random.default_rng(self.seed_sequence(*key))

    def pcg64_states(self, keys) -> list[dict]:
        """The PCG64 states of ``generator(*key)`` for every row of ``keys``.

        ``keys`` is an ``(n, width)`` integer array of key words, each in
        ``[0, 2**32)``.  Bit-identical to ``generator(*key).bit_generator
        .state`` but derived for all rows at once: only the key words are
        hashed per call, over ``(n, 4)`` uint32 arrays, then come
        ``generate_state(4, uint64)``'s readout and PCG64's seeding step.
        A word outside that range would coerce to a different number of
        words, so it raises ``ValueError`` instead of deriving a wrong
        stream.
        """
        keys = np.asarray(keys)
        if len(keys) == 0:
            return []
        if keys.ndim != 2 or (keys.size and keys.dtype.kind not in "iu"):
            raise ValueError(f"keys must be an (n, width) integer array, got {keys!r}")
        if keys.size and (int(keys.min()) < 0 or int(keys.max()) > _MASK32):
            raise ValueError("key words must be in [0, 2**32)")
        width = keys.shape[1]
        consts = self._key_consts.get(width)
        if consts is None:
            xor, mul, _ = _step_consts(self._root_hash, _MULT_A, width * _POOL_SIZE)
            consts = self._key_consts[width] = (
                xor.reshape(width, _POOL_SIZE), mul.reshape(width, _POOL_SIZE)
            )
        xor, mul = consts
        keys = keys.astype(np.uint32)
        pool = np.repeat(self._root_pool[None, :], len(keys), axis=0)
        # Each key word hashes once per pool word, with that step's
        # constants, and mixes into it (mix: L*x - R*y, then x ^= x >> 16).
        for i in range(width):
            h = keys[:, i, None] ^ xor[i]
            h *= mul[i]
            h ^= h >> 16
            h *= np.uint32(_MIX_R)
            pool *= np.uint32(_MIX_L)
            pool -= h
            pool ^= pool >> 16
        out = pool[:, _OUT_CYCLE] ^ _OUT_XOR
        out *= _OUT_MUL
        out ^= out >> 16
        states = []
        words = out.astype("<u4", order="C").view("<u8").tolist()
        for s_hi, s_lo, i_hi, i_lo in words:
            inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
            states.append({
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            })
        return states

    def generators(self, keys: Iterable[Sequence[int]]) -> list[np.random.Generator]:
        """Return one generator per key in ``keys`` (keys of one width),
        derived in one :meth:`pcg64_states` call."""
        gens = []
        for state in self.pcg64_states(list(keys)):
            gen = np.random.Generator(np.random.PCG64())
            gen.bit_generator.state = state
            gens.append(gen)
        return gens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequenceFactory(root_seed={self.root_seed!r})"
