"""Reference implementations the production engines are checked against.

Each oracle is the straightforward, per-item version of an answer that
``src/`` computes with one vectorized engine: the per-destination dict
BFS for route trees (:mod:`tests.oracles.routes`) and the per-pair path
walk for visibility verdicts (:mod:`tests.oracles.visibility`). They are
slow on purpose and serve only as parity authorities and benchmark
baselines.
"""
