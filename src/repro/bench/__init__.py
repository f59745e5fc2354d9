"""Performance measurement: one evidence harness plus the out-of-core gate.

The paper's claims are about speed on 10^6-10^8-nnz tensors, so the only
performance evidence this repository accepts comes from the paper-scale
benchmark in ``perfbench/`` (declared by ``BENCHMARK.json``), compared
between two commits by:

* :mod:`repro.bench.ab` — ``repro-bench ab <rev>``: snapshots ``<rev>`` and
  ``HEAD``, runs alternating pairs of ``perfbench/run.py`` and gives each
  end-to-end metric a ``regression`` / ``unresolved`` / ``neutral`` /
  ``gain`` verdict against its bound, plus per-layer deltas from the
  medians of three traced pairs.

Beside it:

* :mod:`repro.bench.ooc_smoke` — the capped 10^7-nnz out-of-core proof
  (per-cell peak-RSS budget, ``MemoryError`` proof, bit-identity check);
* :mod:`repro.bench.cli` — ``repro-bench list | ab``; ``list`` prints the
  sparse-format registry.
"""
