"""Differential tests: the closed-form bank analysis against the simulator.

``repro.hls.banking`` derives every :class:`AccessProfile` in closed
form (see its module docstring). ``tests/oracles/banking_sim.py`` keeps
the trace simulation it replaced. These tests require the two to agree
exactly: on a fixed subset of every kernel the repository estimates,
and on random kernels that reach the corners the subset does not
(negative and out-of-range indices, uneven partitions, repeated loop
names, more PEs than the enumeration cap, more iteration samples than
the sample cap).
"""

from __future__ import annotations

import time
from math import prod

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hls import (
    READ,
    WRITE,
    AccessSpec,
    AffineIndex,
    ArraySpec,
    KernelSpec,
    LoopSpec,
    banking,
    extract_from_source,
)
from repro.service.pipeline import CompilerPipeline
from repro.suite import CORPUS

from oracles import banking_sim
from test_estimate_golden import GROUPS, pinned_kernels

#: Most PEs a random kernel may have: the simulator enumerates them all.
_PE_BUDGET = 40_000
#: Unroll and partition factors that divide each other, so that random
#: kernels also reach regular (predictable) banking.
_POWERS = st.sampled_from((1, 2, 4, 8))


def _fixed_kernels() -> list[KernelSpec]:
    """The golden pins' kernels plus the corpus extractions."""
    kernels = [kernel for group in GROUPS
               for _, kernel in pinned_kernels(group)]
    kernels += [extract_from_source(entry.source) for entry in CORPUS
                if entry.expected is None]
    return kernels


def test_closed_form_matches_simulator_on_estimated_kernels():
    kernels = _fixed_kernels()
    mismatches = [kernel for kernel in kernels
                  if banking.analyze_kernel(kernel)
                  != banking_sim.analyze_kernel(kernel)]
    assert len(kernels) > 4800
    assert not mismatches, (
        f"{len(mismatches)} mismatching kernels, first: {mismatches[0]}")


# -- random kernels ----------------------------------------------------------

@st.composite
def _index(draw, loops: list[LoopSpec]) -> AffineIndex:
    if draw(st.integers(0, 9)) == 0:
        return AffineIndex.dyn()
    coeffs = {}
    for name in dict.fromkeys(loop.name for loop in loops):
        if draw(st.booleans()):
            coeffs[name] = draw(st.just(1) | st.integers(-3, 4))
    return AffineIndex.of(draw(st.integers(-20, 40)), **coeffs)


@st.composite
def _kernels(draw) -> KernelSpec:
    # Half the kernels unroll wide enough to pass the PE enumeration
    # cap; the total stays small enough for the simulator to enumerate.
    wide = draw(st.booleans())
    budget = _PE_BUDGET
    loops: list[LoopSpec] = []
    for pos in range(draw(st.integers(0, 5))):
        unroll = min(draw(st.integers(4, 24) if wide
                          else _POWERS | st.integers(1, 8)), max(1, budget))
        budget //= unroll
        # Extraction can repeat a loop name (sequential nests reusing
        # ``i``); every loop of that name then shares its coefficient.
        name = draw(st.sampled_from([f"l{pos}"]
                                    + [loop.name for loop in loops]))
        loops.append(LoopSpec(name, draw(st.integers(1, 300)), unroll))
    arrays = []
    for pos in range(draw(st.integers(1, 3))):
        dims = draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))
        partition = [draw(_POWERS | st.integers(1, 16)) for _ in dims]
        arrays.append(ArraySpec(f"a{pos}", tuple(dims), tuple(partition)))
    accesses = []
    for _ in range(draw(st.integers(1, 5))):
        array = draw(st.sampled_from(arrays))
        indices = tuple(draw(_index(loops)) for _ in array.dims)
        accesses.append(AccessSpec(array.name, indices,
                                   draw(st.sampled_from((READ, WRITE))),
                                   inner=draw(st.booleans())))
        if draw(st.booleans()):                 # same indices, kept warm
            accesses.append(AccessSpec(array.name, indices,
                                       draw(st.sampled_from((READ, WRITE))),
                                       inner=draw(st.booleans())))
    return KernelSpec("fuzz", tuple(arrays), tuple(loops), tuple(accesses))


@settings(max_examples=150, deadline=None)
@given(_kernels())
def test_closed_form_matches_simulator_on_random_kernels(kernel):
    samples = banking_sim._loop_samples(kernel)
    assert np.array_equal(banking._loop_samples(kernel), samples)
    offsets = banking_sim._pe_offsets(kernel)
    for access in kernel.accesses:
        assert banking.analyze_access(kernel, access) == \
            banking_sim.analyze_access(kernel, access, samples, offsets)
    assert banking.analyze_kernel(kernel) == \
        banking_sim.analyze_kernel(kernel)


def test_closed_form_matches_simulator_past_both_caps():
    # One kernel certain to pass both caps, whatever the random draws
    # above reach: more PEs than are enumerated, and more iteration
    # combinations than are sampled.
    wide = KernelSpec(
        "wide", (ArraySpec("a", (64, 64), (8, 3)),),
        tuple(LoopSpec(f"l{pos}", 300, 8) for pos in range(5)),
        (AccessSpec("a", (AffineIndex.of(-7, l0=1, l3=-2),
                          AffineIndex.of(50, l1=3, l4=1)), WRITE),
         AccessSpec("a", (AffineIndex.of(l2=1), AffineIndex.of(l4=2)))))
    assert prod(loop.unroll for loop in wide.loops) > banking._MAX_PES
    assert 4 ** len(wide.loops) > banking._MAX_SAMPLES
    assert banking.analyze_kernel(wide) == banking_sim.analyze_kernel(wide)


def test_huge_trip_count_estimates_quickly():
    # Sampling a loop's iterations must not cost its trip count.
    source = ("decl A: float[16];\nlet x = 0.0;\n"
              "for (let i = 0..{trips}) {{\n  x := A[0];\n}}\n")
    pipeline = CompilerPipeline()
    assert pipeline.run("estimate_payload", source.format(trips=16))["ok"]
    start = time.perf_counter()
    payload = pipeline.run("estimate_payload",
                           source.format(trips=10 ** 9))
    elapsed = time.perf_counter() - start
    assert payload["ok"]
    assert payload["report"]["latency_cycles"] > 10 ** 9
    assert elapsed < 0.1
