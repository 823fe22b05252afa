"""Reference implementations the production hot paths are pinned to.

Each module here holds the plain-loop form of a batched production
path: the per-server/per-DC slot physics, the Eq. 1 latency dict
loops and the per-row demand assembly of the slot kernel
(:mod:`tests.oracles.kernel`), and the per-pair data-correlation loop
(:mod:`tests.oracles.datacorr`).  The equivalence tests and the
benchmarks compare the production code against these bit for bit;
nothing under ``src/`` imports them.
"""
