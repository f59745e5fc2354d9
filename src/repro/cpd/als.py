"""CPD-ALS (Algorithm 1 of the paper).

Every iteration updates each factor matrix in turn:

    A_n ← MTTKRP_n(X, factors) · (∗_{m≠n} A_mᵀA_m)⁺

then normalises the columns into ``λ``.  The MTTKRP is executed through a
:class:`repro.core.mttkrp.MttkrpPlan`, so the choice of format (any entry of
the :mod:`repro.formats` registry with a CPU kernel, or ``"auto"`` for the
:mod:`repro.tune` autotuner) and its preprocessing cost are explicit — this
is exactly the trade-off Figures 9 and 10 analyse.  Because the plan draws
its representations from the content-addressed build-plan cache, repeated
solves of the same tensor (rank sweeps, figure drivers, bench laps) pay the
format construction once; the reported ``preprocessing_seconds`` remains the
recorded cost of the original build.

The inner loop allocates little on its hot path.  Each mode update
allocates one fresh ``(shape[m], R)`` factor — the solve product, which is
normalised in place and becomes the new factor — and, for outputs above
``_WORKSPACE_MAX_BYTES``, one fresh MTTKRP output.  Smaller outputs go to a
per-mode workspace and the Gram Hadamard product to one ``(R, R)`` buffer,
both allocated at solve start and reused every sweep (kernels accumulate
into ``out=``).  Per-factor Gram matrices are cached and only the updated
factor's Gram is recomputed, and the kernels run with ``validate=False`` —
the factor shapes are fixed by the solver itself, so re-checking them (and
re-scanning CSF pointers) every inner step would be pure overhead.  Factors
and workspaces stay F-contiguous, the rank-major layout the CSF tree
kernel reads and every kernel writes
(:func:`repro.kernels.csf_mttkrp.rank_major`), so the solver itself copies
no factor; the row-major CSL and COO kernels copy the modes they gather
into row tables once per dispatch.  The committed-iteration snapshot kept
for deadlines is a shallow list (factor arrays are replaced, never written
in place).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.mttkrp import MttkrpPlan
from repro.core.splitting import SplitConfig
from repro.cpd.checkpoint import load_checkpoint, save_checkpoint
from repro.cpd.fit import column_dots, cp_fit, tensor_norm
from repro.cpd.init import init_factors
from repro.faults.deadline import (
    as_deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.faults.hooks import fault_point
from repro.formats.plan_cache import tensor_fingerprint
from repro.kernels.csf_mttkrp import rank_major
from repro.telemetry import counter_add, span
from repro.tensor.coo import CooTensor
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DeadlineExceeded, ValidationError

__all__ = ["CpdResult", "cp_als"]

#: per-mode output workspaces above this size are not kept: zeroing them in
#: place each inner step costs more than letting the allocator hand the
#: kernel lazily-zeroed pages (most rows of a huge sparse mode are never
#: written).  4 MiB ≈ a 16k-row float64 output at the paper's R = 32.
_WORKSPACE_MAX_BYTES = 4 << 20


@dataclass
class CpdResult:
    """Outcome of a CPD-ALS run.

    Attributes
    ----------
    weights:
        ``(R,)`` column norms λ.
    factors:
        Normalised factor matrices, one per mode (in the solve's compute
        dtype).
    fits:
        Relative fit after each iteration.
    iterations:
        Iterations actually executed.
    converged:
        Whether the fit change dropped below the tolerance.
    preprocessing_seconds:
        Time spent building the per-mode MTTKRP representations.
    mttkrp_seconds:
        Total wall-clock time spent inside MTTKRP calls.
    """

    weights: np.ndarray
    factors: list[np.ndarray]
    fits: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    preprocessing_seconds: float = 0.0
    mttkrp_seconds: float = 0.0

    @property
    def final_fit(self) -> float:
        return self.fits[-1] if self.fits else 0.0

    def reconstruct(self) -> np.ndarray:
        """Dense reconstruction (small tensors / testing only)."""
        rank = self.weights.shape[0]
        order = len(self.factors)
        shape = tuple(f.shape[0] for f in self.factors)
        dense = np.zeros(shape, dtype=np.float64)
        for r in range(rank):
            component = self.weights[r]
            outer = np.asarray(self.factors[0][:, r], dtype=np.float64)
            for m in range(1, order):
                outer = np.multiply.outer(
                    outer, np.asarray(self.factors[m][:, r], dtype=np.float64))
            dense += component * outer
        return dense


def cp_als(
    tensor: CooTensor,
    rank: int,
    n_iters: int = 50,
    tol: float = 1e-5,
    format: str = "hb-csf",
    config: SplitConfig | None = None,
    init: str | list[np.ndarray] = "random",
    rng=None,
    compute_fit: bool = True,
    dtype=None,
    backend: str | None = None,
    num_workers: int | None = None,
    deadline=None,
    checkpoint=None,
    checkpoint_every: int = 1,
) -> CpdResult:
    """Run CPD-ALS on a sparse tensor (Algorithm 1).

    Parameters
    ----------
    tensor:
        Input sparse tensor.
    rank:
        Decomposition rank ``R`` (the paper uses 32).
    n_iters:
        Maximum number of outer iterations.
    tol:
        Convergence tolerance on the change in fit.
    format / config:
        MTTKRP format and splitting configuration (any format produces the
        same factors; only speed differs).  ``"auto"`` lets the
        :mod:`repro.tune` autotuner elect the fastest kernel per mode.
    init:
        ``"random"`` / ``"randn"`` or explicit initial factor matrices.
    compute_fit:
        Disable to skip the fit computation (slightly faster sweeps).
    dtype:
        Compute dtype for factors and MTTKRP (``"float32"`` or
        ``"float64"``, default float64).  The small ``R x R`` normal
        equations are always solved in float64 for stability; float32
        changes only the bandwidth-bound bulk work.
    backend / num_workers:
        Execution backend for the MTTKRP sweeps (``"serial"`` /
        ``"threads"``; ``None`` defers to ``REPRO_BACKEND``).  The threaded
        backend is bit-identical to serial, so the factor trajectory — and
        the fit — do not depend on this choice.
    deadline:
        Optional wall-clock budget (seconds, or a
        :class:`repro.faults.Deadline`).  Checked cooperatively at every
        iteration edge and — through the ambient deadline scope — at every
        kernel pass boundary.  On expiry the solve raises
        :class:`~repro.util.errors.DeadlineExceeded` whose ``partial``
        attribute is a :class:`CpdResult` of the committed (fully finished)
        iterations; with a ``checkpoint`` the same state is on disk.
    checkpoint:
        Optional path to an ``.npz`` checkpoint.  When the file holds a
        valid committed checkpoint for *this* solve (same tensor
        fingerprint, rank, dtype and format) the solve resumes from it and
        replays the uninterrupted factor trajectory bit-for-bit; a
        missing, torn or foreign checkpoint starts fresh (damage is
        quarantined).  State is committed atomically every
        ``checkpoint_every`` iterations and at the final iteration.
    checkpoint_every:
        Commit cadence in iterations (default: every iteration).
    """
    if n_iters < 1:
        raise ValidationError(f"n_iters must be >= 1, got {n_iters}")
    if checkpoint_every < 1:
        raise ValidationError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if tensor.nnz == 0:
        raise ValidationError("cannot decompose an empty tensor")
    compute_dtype = resolve_dtype(dtype)

    if isinstance(init, str):
        factors = init_factors(tensor, rank, init, rng)
    else:
        factors = [np.array(f, dtype=np.float64, order="F") for f in init]
        if len(factors) != tensor.order:
            raise ValidationError("need one initial factor per mode")
        for m, f in enumerate(factors):
            if f.shape != (tensor.shape[m], rank):
                raise ValidationError(
                    f"initial factor {m} has shape {f.shape}, expected "
                    f"{(tensor.shape[m], rank)}"
                )
    factors = rank_major(factors, compute_dtype)

    plan = MttkrpPlan(tensor, format=format, config=config,
                      dtype=dtype, rank=rank, backend=backend,
                      num_workers=num_workers)
    order = tensor.order
    dl = as_deadline(deadline)

    # Resume: a committed checkpoint for this exact solve (tensor content,
    # rank, dtype, resolved format) restores factors / weights / the fit
    # trajectory and skips the finished iterations.  Grams, norm_x and the
    # workspaces are recomputed — they are deterministic functions of the
    # restored state, so the trajectory replays bit-for-bit.
    ckpt_meta = None
    fits: list[float] = []
    weights = np.ones(rank, dtype=np.float64)
    start_iter = 0
    converged = False
    if checkpoint is not None:
        ckpt_meta = {
            "fingerprint": tensor_fingerprint(tensor),
            "rank": int(rank),
            "dtype": str(np.dtype(compute_dtype)),
            "format": plan.format,
        }
        state = load_checkpoint(checkpoint, expect_meta=ckpt_meta)
        if state is not None:
            factors = rank_major(state["factors"], compute_dtype)
            weights = np.asarray(state["weights"], dtype=np.float64)
            fits = list(state["fits"])
            start_iter = state["iteration"]
            converged = bool(state["meta"].get("converged", False))
            counter_add("als.resumes")

    norm_x = tensor_norm(tensor)
    # Per-factor Gram cache (float64 for the normal equations): only the
    # updated factor's Gram is recomputed inside the sweep.
    grams = [(f.T @ f).astype(np.float64, copy=False) for f in factors]

    # Hot-path workspaces, allocated once per solve: the kernels accumulate
    # into a zeroed per-mode output, and the Hadamard product of the Grams
    # is built in place.  Very large outputs are exempt: re-zeroing them
    # with ``fill`` writes every page each inner step, whereas a fresh
    # ``np.zeros`` is lazily zeroed by the allocator and pages the kernel
    # never touches (empty slices) stay free — measured faster beyond the
    # threshold.
    workspaces = [
        np.empty((tensor.shape[m], rank), dtype=compute_dtype, order="F")
        if tensor.shape[m] * rank * compute_dtype.itemsize
        <= _WORKSPACE_MAX_BYTES else None
        for m in range(order)
    ]
    v_buf = np.empty((rank, rank), dtype=np.float64)

    mttkrp_seconds = 0.0
    iterations = start_iter

    # When any watchdog can fire (an explicit budget here, or an ambient
    # deadline installed by a caller such as the bench runner's cell
    # timeout), keep a snapshot of the last *committed* iteration so
    # ``DeadlineExceeded.partial`` never exposes a half-swept factor set.
    # The snapshot shares arrays with the live solve: ``weights`` and each
    # ``factors[m]`` are only ever replaced by fresh arrays (the solve
    # product of their mode update), never written in place, so a shallow
    # list keeps the committed values.
    watchdog = dl is not None or current_deadline() is not None
    committed = (weights, list(factors), list(fits),
                 iterations) if watchdog else None

    with span("als.solve", format=plan.format, rank=rank,
              n_iters=n_iters, nnz=tensor.nnz) as solve_sp:
        try:
            with deadline_scope(dl):
                for iteration in range(start_iter, n_iters):
                    if converged:
                        break  # a restored checkpoint had already converged
                    fault_point("als.iteration", iteration=iteration)
                    check_deadline("als.iteration")
                    last_mttkrp = None
                    with span("als.iteration", iteration=iteration):
                        for mode in range(order):
                            with span("als.mode", mode=mode):
                                ws = workspaces[mode]
                                if ws is not None:
                                    ws.fill(0.0)
                                start = time.perf_counter()
                                # The factor shapes were validated above and
                                # never change, so the kernels skip their
                                # per-call checks.
                                m_mat = plan.mttkrp(factors, mode, out=ws,
                                                    validate=False)
                                mttkrp_seconds += time.perf_counter() - start

                                v_buf.fill(1.0)
                                for other in range(order):
                                    if other != mode:
                                        v_buf *= grams[other]
                                # (M P)ᵀ = Pᵀ Mᵀ on the (R, I) views: the
                                # product comes out F-contiguous, like M
                                new_factor = (np.linalg.pinv(v_buf).T
                                              @ m_mat.T).T

                                # normalise columns into the weights:
                                # the 2-norm in the first iteration
                                # (np.linalg.norm's own real-input
                                # reduction, a column at a time), the
                                # max-abs after it (no abs temporary)
                                if iteration == 0:
                                    norms = np.sqrt(column_dots(new_factor,
                                                                new_factor))
                                else:
                                    norms = np.maximum(
                                        np.maximum(new_factor.max(axis=0),
                                                   -new_factor.min(axis=0)),
                                        1.0)
                                norms[norms == 0.0] = 1.0
                                # in place: new_factor is this mode's
                                # fresh solve product, shared with nothing
                                np.divide(new_factor, norms, out=new_factor)
                                new_factor = new_factor.astype(
                                    compute_dtype, copy=False)
                                weights = norms

                                factors[mode] = new_factor
                                grams[mode] = (
                                    new_factor.T @ new_factor
                                ).astype(np.float64, copy=False)
                                last_mttkrp = m_mat

                    iterations = iteration + 1
                    counter_add("als.iterations")
                    if compute_fit:
                        # The last MTTKRP was computed from the already-
                        # normalised other factors and never reads the
                        # target factor, so it can be reused for the inner
                        # product as-is.
                        fit = cp_fit(tensor, weights, factors,
                                     mttkrp_last=last_mttkrp,
                                     last_mode=order - 1, norm_x=norm_x,
                                     grams=grams)
                        fits.append(fit)
                        if len(fits) > 1 and abs(fits[-1] - fits[-2]) < tol:
                            converged = True
                    if watchdog:
                        committed = (weights, list(factors), list(fits),
                                     iterations)
                    if checkpoint is not None and (
                            converged or iterations == n_iters
                            or iterations % checkpoint_every == 0):
                        save_checkpoint(
                            checkpoint, factors=factors, weights=weights,
                            fits=fits, iteration=iterations,
                            meta={**ckpt_meta, "converged": converged})
                    if converged:
                        break
        except DeadlineExceeded as exc:
            if committed is not None:
                cw, cf, cfits, cit = committed
                exc.partial = CpdResult(
                    weights=cw, factors=cf, fits=cfits, iterations=cit,
                    converged=False,
                    preprocessing_seconds=plan.preprocessing_seconds,
                    mttkrp_seconds=mttkrp_seconds,
                )
            raise
        solve_sp.set(iterations=iterations, converged=converged,
                     mttkrp_seconds=mttkrp_seconds)

    return CpdResult(
        weights=weights,
        factors=factors,
        fits=fits,
        iterations=iterations,
        converged=converged,
        preprocessing_seconds=plan.preprocessing_seconds,
        mttkrp_seconds=mttkrp_seconds,
    )
