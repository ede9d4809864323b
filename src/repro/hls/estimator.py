"""The top-level HLS estimator — our stand-in for Vivado HLS's
estimation mode (§5.1's experimental substrate).

``estimate(kernel)`` produces a :class:`Report` with the five objectives
the paper's DSE ranks (cycle latency plus LUT/FF/BRAM/DSP counts), a
``predictable`` flag (did the configuration obey the unwritten rules of
§2.1?), and an ``incorrect`` flag modelling the configurations the paper
observed to silently produce wrong hardware (Fig. 4b: "some unrolling
factors yield hardware that produces incorrect results").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..util.hashing import jitter
from . import resources as res
from .banking import ArrayProfile, analyze_kernel
from .kernel import KernelSpec
from .resources import estimate_resources
from .scheduling import (
    DEPTH_BASE,
    DEPTH_FP_ADD,
    DEPTH_FP_DIV,
    DEPTH_FP_MUL,
    DEPTH_SPECIAL,
    REDUCTION_II,
    Schedule,
    schedule,
)


@dataclass(frozen=True)
class Report:
    kernel_name: str
    latency_cycles: int
    runtime_ms: float
    luts: int
    ffs: int
    brams: int
    dsps: int
    lutmems: int
    ii: float
    predictable: bool
    incorrect: bool

    @property
    def objectives(self) -> tuple[float, ...]:
        """(latency, LUT, FF, BRAM, DSP) — the paper's Pareto axes."""
        return (float(self.latency_cycles), float(self.luts),
                float(self.ffs), float(self.brams), float(self.dsps))


def _is_predictable(kernel: KernelSpec,
                    profiles: dict[str, ArrayProfile],
                    sched: Schedule) -> bool:
    """Does the configuration follow §2.1's unwritten rules?

    1. every access has *regular* banking — the per-PE bank sets
       partition the banks (unrolling divides banking);
    2. every banking factor divides its array dimension;
    3. every unroll factor divides its trip count;
    4. no port conflicts forced serialization.
    """
    if sched.epilogue_loops or sched.serialized:
        return False
    for profile in profiles.values():
        if not profile.regular or profile.array.uneven:
            return False
    return True


def _is_incorrect(kernel: KernelSpec,
                  profiles: dict[str, ArrayProfile],
                  sched: Schedule) -> bool:
    """Model of the Vivado miscompilations the paper hit (Fig. 4b).

    Empirically those were configurations combining heavy bank
    indirection with epilogue (partial-unroll) handling. We flag a
    configuration as incorrect when a crossbar (mux degree ≥ 4)
    coincides with an epilogue loop — deterministic, so the benchmark
    harness reports the same points every run.
    """
    has_crossbar = any(p.crossbar for p in profiles.values())
    return has_crossbar and sched.epilogue_loops > 0


def estimate(kernel: KernelSpec, noise_seed: str = "") -> Report:
    """Run the full estimation pipeline on a kernel."""
    profiles = analyze_kernel(kernel)
    sched = schedule(kernel, profiles)
    resources = estimate_resources(kernel, profiles, sched, noise_seed)
    return Report(
        kernel_name=kernel.name,
        latency_cycles=sched.cycles,
        runtime_ms=sched.runtime_ms(kernel.clock_mhz),
        luts=resources.luts,
        ffs=resources.ffs,
        brams=resources.brams,
        dsps=resources.dsps,
        lutmems=resources.lutmems,
        ii=sched.ii,
        predictable=_is_predictable(kernel, profiles, sched),
        incorrect=_is_incorrect(kernel, profiles, sched))


def estimate_bounds(kernel: KernelSpec,
                    noise_seed: str = "") -> tuple[float, ...]:
    """Certified componentwise lower bound on ``estimate().objectives``.

    The point of this function is its *cost*: it needs no banking
    analysis (the expensive part of :func:`estimate`), so it runs
    ~10× faster than a full estimate (averaged over every 16th
    configuration of the four DSE families on a 2-core x86 VM) —
    cheap enough to score every candidate of a sweep up front. The
    frontier-guided search in :mod:`repro.dse.frontier` uses it to
    prune candidates that a fully-evaluated point already dominates;
    that pruning is sound *only because* this bound never exceeds the
    real objectives, so
    every term below must under-approximate its counterpart in
    :func:`~repro.hls.scheduling.schedule` /
    :func:`~repro.hls.resources.estimate_resources`:

    * latency — ``ii >= natural_ii`` (port conflicts only serialize,
      ``slots >= 1``) and the pipeline depth keeps only the op-depth
      terms (mux/crossbar depths are banking-dependent extras);
    * LUTs/FFs/DSPs — functional units shared across serialized slots
      collapse to ``pe_instances >= 1``; mux, arbitration, and
      uneven-bank decode terms are dropped (they need profiles);
    * BRAMs — exact: array geometry alone determines them, un-noised;
    * noise — the deterministic jitter factor is a pure function of
      the config fingerprint, so the bound multiplies by the *minimum*
      of the predictable/unpredictable factors (whichever the real
      estimate uses, it is ≥ that minimum).

    The certificate (``estimate_bounds(k) <= estimate(k).objectives``
    componentwise, for every configuration) is property-tested per DSE
    family in ``tests/test_dse_frontier.py``.
    """
    ops = kernel.ops
    depth = DEPTH_BASE \
        + (DEPTH_FP_MUL if ops.fp_mul else 0) \
        + (DEPTH_FP_ADD if ops.fp_add else 0) \
        + (DEPTH_FP_DIV if ops.fp_div else 0) \
        + (DEPTH_SPECIAL if ops.special else 0)
    natural_ii = REDUCTION_II if kernel.has_reduction else 1.0
    latency = int(kernel.iterations * natural_ii) + depth

    pes = kernel.processing_elements
    pe_logic = (ops.fp_mul * res.LUT_FP_MUL + ops.fp_add * res.LUT_FP_ADD
                + ops.fp_div * res.LUT_FP_DIV
                + ops.special * res.LUT_SPECIAL
                + ops.int_mul * res.LUT_INT_MUL
                + ops.int_add * res.LUT_INT_ADD + ops.cmp * res.LUT_CMP)
    epilogues = sum(1 for loop in kernel.loops if loop.has_epilogue)
    adapters = sum(1 for access in kernel.accesses
                   for index in access.indices
                   if index.const != 0 or index.dynamic)
    luts = (res.LUT_BASE_CONTROL + res.LUT_PER_LOOP * len(kernel.loops)
            + pe_logic + epilogues * pes * res.LUT_EPILOGUE_GUARD
            + adapters * pes * res.LUT_ADDR_ADAPTER)
    ffs = (depth * res.FF_PER_PIPELINE_STAGE
           + len(kernel.loops) * res.FF_PER_LOOP
           + (pes * res.FF_ACCUMULATOR if kernel.has_reduction else 0))
    dsps = (ops.fp_mul * res.DSP_FP_MUL + ops.fp_add * res.DSP_FP_ADD
            + ops.fp_div * res.DSP_FP_DIV + ops.int_mul * res.DSP_INT_MUL
            + ops.special * res.DSP_SPECIAL)
    brams = 0
    for array in kernel.arrays:
        bank_bits = array.bank_elements() * array.width
        if bank_bits > res.LUTRAM_THRESHOLD_BITS:
            brams += array.total_banks * -(-bank_bits // res.BRAM_BITS)

    key = noise_seed + kernel.config_key

    def noise_floor(suffix: str, divisor: float = 1.0) -> float:
        return min(
            jitter(key + suffix, res.NOISE_PREDICTABLE / divisor),
            jitter(key + suffix, res.NOISE_UNPREDICTABLE / divisor))

    return (float(latency),
            float(int(luts * noise_floor(":lut"))),
            float(int(ffs * noise_floor(":ff"))),
            float(brams),
            float(int(dsps * noise_floor(":dsp", 4.0))))


def speedup(baseline: Report, candidate: Report) -> float:
    """Latency improvement of ``candidate`` over ``baseline``."""
    if candidate.latency_cycles == 0:
        return math.inf
    return baseline.latency_cycles / candidate.latency_cycles
