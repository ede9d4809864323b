"""The trace-simulating bank-conflict analysis, kept as a reference.

This is the estimator's original ``repro.hls.banking`` analysis: it
builds the (sampled iteration × PE representative) bank and address
trace matrices with NumPy and counts them directly. The production
module now derives the same :class:`AccessProfile` in closed form; the
differential tests in ``tests/test_banking_differential.py`` compare the
two. The functions below are the original code, unchanged.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.hls.banking import AccessProfile, ArrayProfile
from repro.hls.kernel import AccessSpec, KernelSpec

#: Cap on enumerated PE combinations — above this we sample.
_MAX_PES = 4096
#: Sequential-iteration samples per loop.
_SAMPLES_PER_LOOP = 3
#: Cap on total iteration samples.
_MAX_SAMPLES = 64


def _loop_samples(kernel: KernelSpec) -> np.ndarray:
    """A deterministic sample of sequential iteration vectors."""
    per_loop: list[list[int]] = []
    for loop in kernel.loops:
        total = loop.iterations
        picks = sorted({0, 1, total // 2, total - 1} & set(range(total)))
        per_loop.append(picks[:_SAMPLES_PER_LOOP + 1] or [0])
    combos = list(product(*per_loop))
    if len(combos) > _MAX_SAMPLES:
        stride = len(combos) // _MAX_SAMPLES
        combos = combos[::stride][:_MAX_SAMPLES]
    return np.array(combos, dtype=np.int64)         # (S, n_loops)


def _pe_offsets(kernel: KernelSpec) -> np.ndarray:
    """All unrolled-copy offset vectors (R, n_loops)."""
    ranges = [range(loop.unroll) for loop in kernel.loops]
    combos = list(product(*ranges))
    if len(combos) > _MAX_PES:
        stride = len(combos) // _MAX_PES
        combos = combos[::stride][:_MAX_PES]
    return np.array(combos, dtype=np.int64)


def analyze_access(kernel: KernelSpec, access: AccessSpec,
                   samples: np.ndarray | None = None,
                   offsets: np.ndarray | None = None) -> AccessProfile:
    """Simulate one access's bank traffic."""
    array = kernel.array(access.array)
    if samples is None:
        samples = _loop_samples(kernel)
    if offsets is None:
        offsets = _pe_offsets(kernel)
    n_samples, n_pes = len(samples), len(offsets)
    loop_names = [loop.name for loop in kernel.loops]
    unrolls = np.array([loop.unroll for loop in kernel.loops],
                       dtype=np.int64)

    if any(index.dynamic for index in access.indices):
        # Data-dependent index: any PE may hit any bank; the scheduler
        # must serialize all copies onto one port in the worst case.
        total_banks = array.total_banks
        return AccessProfile(
            access=access,
            mux_degree=total_banks,
            port_pressure=n_pes,
            regular=total_banks == 1 and n_pes == 1,
            crossbar=total_banks >= 4,
            dynamic=True)

    # PEs from unroll dimensions the access does not mention produce
    # identical traces — the hardware fans one port out to them (§3.1).
    # Unmentioned loops contribute nothing to the index values, so one
    # representative per mentioned-offset tuple carries the whole
    # group's trace; the trace matrices are built over representatives
    # only (often 8× fewer columns), with each representative's fan-out
    # multiplicity kept for the write-pressure count below.
    mentioned = [pos for pos, name in enumerate(loop_names)
                 if any(index.coeff(name) for index in access.indices)]
    if mentioned:
        pe_key = np.zeros(n_pes, dtype=np.int64)
        stride = 1
        for pos in mentioned:
            pe_key += offsets[:, pos] * stride
            stride *= int(unrolls[pos])
        _, rep_rows, rep_counts = np.unique(
            pe_key, return_index=True, return_counts=True)
    else:
        rep_rows = np.zeros(1, dtype=np.int64)
        rep_counts = np.array([n_pes], dtype=np.int64)
    reps = offsets[rep_rows]
    n_reps = len(reps)

    # index value per dim: const + Σ coeff·(unroll·q + r)
    banks = np.zeros((n_samples, n_reps), dtype=np.int64)
    addresses = np.zeros((n_samples, n_reps), dtype=np.int64)
    bank_stride = 1
    addr_stride = 1
    for dim in range(len(array.dims) - 1, -1, -1):
        index = access.indices[dim]
        factor = array.partition[dim]
        values = np.full((n_samples, n_reps), index.const, dtype=np.int64)
        for loop_pos, name in enumerate(loop_names):
            coeff = index.coeff(name)
            if coeff == 0:
                continue
            seq = samples[:, loop_pos] * unrolls[loop_pos]   # (S,)
            par = reps[:, loop_pos]                          # (R,)
            values += coeff * (seq[:, None] + par[None, :])
        banks += np.mod(values, factor) * bank_stride
        addresses += (values // factor) * addr_stride
        bank_stride *= factor
        addr_stride *= max(1, array.dims[dim] // factor)

    # Distinct mentioned offsets can still collide on values (e.g. an
    # i+j index), so deduplicate identical (bank, address) trace
    # columns among the representatives before the mux analysis.
    shifted = addresses - addresses.min()
    addr_span = int(shifted.max()) + 1
    combined = banks * addr_span + shifted           # injective fold
    columns = np.ascontiguousarray(combined.T)
    as_void = columns.view(
        np.dtype((np.void, columns.dtype.itemsize * columns.shape[1])))
    _, keep = np.unique(as_void.ravel(), return_index=True)
    banks_distinct = banks[:, keep]

    # Mux degree: distinct banks each effective PE sees across time.
    # Regularity: the per-PE bank sets are pairwise disjoint (they
    # partition the banks) exactly when the unrolling "divides" the
    # banking — §2.1's unwritten rule. Disjointness ⟺ Σ|banks_pe| ==
    # |∪ banks_pe|. Count distinct values per column in one batched
    # sort+diff instead of a per-PE Python loop.
    sorted_cols = np.sort(banks_distinct, axis=0)
    distinct_per_pe = np.ones(sorted_cols.shape[1], dtype=np.int64)
    if sorted_cols.shape[0] > 1:
        distinct_per_pe += (np.diff(sorted_cols, axis=0) != 0).sum(axis=0)
    mux_degree = max(1, int(distinct_per_pe.max(initial=1)))
    per_pe_total = int(distinct_per_pe.sum())
    union_size = len(np.unique(banks_distinct))
    regular = per_pe_total == union_size

    # Port pressure: worst per-bank simultaneous load in one iteration.
    # Fold (sample, bank[, address]) into flat integer keys so the whole
    # matrix is grouped with batched counting instead of a Python loop
    # over samples.
    total_banks = bank_stride                 # banks ∈ [0, total_banks)
    sample_ids = np.arange(n_samples, dtype=np.int64)[:, None]
    bank_keys = sample_ids * total_banks + banks             # (S, R)
    if access.is_write:
        # Writes always count — every fanned-out copy of a
        # representative hits its bank, so weight by multiplicity.
        weights = np.broadcast_to(
            rep_counts.astype(np.float64), bank_keys.shape)
        counts = np.bincount(bank_keys.ravel(),
                             weights=weights.ravel())
    else:
        # Identical (bank, address) pairs fan out — count once.
        triples = np.unique(bank_keys * addr_span + shifted)
        _, counts = np.unique(triples // addr_span, return_counts=True)
    pressure = int(counts.max())

    return AccessProfile(
        access=access,
        mux_degree=mux_degree,
        port_pressure=pressure,
        regular=regular,
        crossbar=mux_degree >= 4,
        dynamic=False)


def analyze_kernel(kernel: KernelSpec) -> dict[str, ArrayProfile]:
    """Profile every array of the kernel."""
    samples = _loop_samples(kernel)
    offsets = _pe_offsets(kernel)
    profiles: dict[str, list[AccessProfile]] = {}
    for access in kernel.accesses:
        profile = analyze_access(kernel, access, samples, offsets)
        profiles.setdefault(access.array, []).append(profile)

    result: dict[str, ArrayProfile] = {}
    for name, access_profiles in profiles.items():
        array = kernel.array(name)
        # Inner-loop accesses in one iteration stack their pressure on
        # the banks; hoisted accesses are amortized (kernel.py).
        pressure = sum(p.port_pressure for p in access_profiles
                       if p.access.inner)
        result[name] = ArrayProfile(
            array=array,
            port_pressure=pressure,
            mux_degree=max(p.mux_degree for p in access_profiles),
            crossbar=any(p.crossbar for p in access_profiles),
            regular=all(p.regular for p in access_profiles))
    return result
