"""Bank-conflict analysis for the HLS estimator.

For every access of a kernel this module derives the quantities §2.1
identifies as the sources of (un)predictability:

* ``mux_degree`` — how many distinct banks one PE must reach over time.
  1 means a direct PE↔bank wire (Fig. 3c); ``total_banks`` means a full
  crossbar (Fig. 3b's multiplexing hardware).
* ``port_pressure`` — the worst-case number of simultaneous accesses a
  single bank must serve in one iteration. Identical read addresses
  fan out (they count once, §3.1); writes always count.
* ``aligned`` — every PE owns a static set of banks disjoint from the
  others (the "unrolling divides banking" unwritten rule).

The quantities are defined over the (bank, address) trace each
processing element (PE, one unrolled copy of the loop body) follows
across a deterministic sample of sequential iterations
(:func:`_loop_samples`). They are computed in closed form, without
building any trace, from a permutation argument. For a non-dynamic
access, the index of dimension ``d`` at sample ``s`` and PE ``r`` is
``A_d[s] + B_d[r]``: a sequential part plus the PE's unrolled offset.
With cyclic partition factors ``f``:

* The bank is the mixed-radix code of ``(A[s] + B[r]) mod f``. Adding
  ``B[r]`` only permutes the bank residues, so every PE reaches the
  same number ``m = |T|`` of banks, where ``T = {A[s] mod f}``.
* Split ``A = f·qa + a`` and ``B = f·qb + b``: the address of dimension
  ``d`` is ``qa + qb + (a + b) // f``. Two PEs with the same residues
  ``β = B mod f`` therefore hit the same bank at every sample, at
  addresses that differ by the same amount each time, the difference
  of their ``α = Σ_d (B_d // f_d)·stride_d``. PEs with different ``β``
  hit different banks at every sample. So two PEs have identical
  traces iff they agree on ``(β, α)``.
* Write pressure (every copy counts) is the largest number of PEs that
  share one ``β``; read pressure (identical addresses fan out) is the
  largest number of distinct ``α`` within one ``β``.
* The per-PE bank sets partition the banks they reach (``regular``)
  iff the distinct traces' bank counts, ``#(β, α) · m``, add up to the
  size of their union ``∪_β (T + β)``.

Each access costs O(samples + PE representatives).
``tests/oracles/banking_sim.py`` keeps the trace simulation these
formulas replace as the differential reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .kernel import AccessSpec, AffineIndex, ArraySpec, KernelSpec

#: Cap on enumerated PE combinations — above this we sample.
_MAX_PES = 4096
#: Sequential-iteration samples per loop.
_SAMPLES_PER_LOOP = 3
#: Cap on total iteration samples.
_MAX_SAMPLES = 64


@dataclass(frozen=True)
class AccessProfile:
    """Bank behaviour of one access across PEs and time."""

    access: AccessSpec
    mux_degree: int                  # banks reachable per PE (1 = wired)
    port_pressure: int               # worst simultaneous accesses per bank
    regular: bool                    # per-PE bank sets partition the banks
    crossbar: bool                   # PE must reach ≥ 4 banks
    dynamic: bool                    # data-dependent indexing

    @property
    def aligned(self) -> bool:
        """Direct PE↔bank wiring, no mux at all (Fig. 3c)."""
        return self.mux_degree == 1 and self.regular


@dataclass(frozen=True)
class ArrayProfile:
    """Aggregated pressure on one array across all its accesses."""

    array: ArraySpec
    port_pressure: int               # combined worst-case per-bank load
    mux_degree: int
    crossbar: bool
    regular: bool


def _product_rows(sizes: list[int], cap: int) -> np.ndarray:
    """The rows of ``itertools.product(*map(range, sizes))`` as digit
    vectors, thinned above ``cap`` rows to the strided subsample
    ``rows[::len(rows) // cap][:cap]``, decoded from flat positions
    without building the product."""
    total = prod(sizes)
    count, stride = (total, 1) if total <= cap else (cap, total // cap)
    if not sizes:
        return np.zeros((count, 0), dtype=np.int64)
    flat = np.arange(count, dtype=np.int64) * stride
    return np.stack(np.unravel_index(flat, sizes), axis=1)


def _loop_samples(kernel: KernelSpec) -> np.ndarray:
    """A deterministic sample of sequential iteration vectors."""
    per_loop: list[list[int]] = []
    for loop in kernel.loops:
        total = loop.iterations
        picks = sorted({pick for pick in (0, 1, total // 2, total - 1)
                        if 0 <= pick < total})
        per_loop.append(picks[:_SAMPLES_PER_LOOP + 1] or [0])
    digits = _product_rows([len(picks) for picks in per_loop], _MAX_SAMPLES)
    samples = np.empty_like(digits)
    for pos, picks in enumerate(per_loop):
        samples[:, pos] = np.array(picks, dtype=np.int64)[digits[:, pos]]
    return samples                                  # (S, n_loops)


@dataclass(frozen=True)
class _Traffic:
    """Closed-form bank behaviour of one index tuple on one geometry."""

    banks_per_pe: int                # m = |T|
    regular: bool
    read_pressure: int
    write_pressure: int


class _Nest:
    """One kernel's sampled iterations and PE representatives.

    Lives for one analysis, so accesses of the kernel share its work
    but nothing outlives the call.
    """

    def __init__(self, kernel: KernelSpec) -> None:
        self.kernel = kernel
        self.names = [loop.name for loop in kernel.loops]
        self.unrolls = [loop.unroll for loop in kernel.loops]
        # Sequential part of every loop index: iteration q of a loop
        # unrolled u times starts at q·u.
        self.seq = _loop_samples(kernel) * np.array(self.unrolls,
                                                     dtype=np.int64)
        self.n_pes = min(kernel.processing_elements, _MAX_PES)
        self._reps: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._traffic: dict[tuple, _Traffic] = {}

    def representatives(self, mentioned: tuple[int, ...],
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct PE offset vectors over the ``mentioned`` loops, and
        how many PEs share each.

        PEs from unroll dimensions an access does not mention produce
        identical traces — the hardware fans one port out to them
        (§3.1) — so one representative carries each group. Up to
        ``_MAX_PES`` PEs every offset combination occurs, equally
        often; above it the PEs are the strided subsample the
        estimator has always taken.
        """
        if mentioned not in self._reps:
            if self.kernel.processing_elements <= _MAX_PES:
                rows = _product_rows(
                    [self.unrolls[pos] for pos in mentioned], _MAX_PES)
                counts = np.full(len(rows), self.n_pes // len(rows))
            else:
                digits = _product_rows(self.unrolls, _MAX_PES)
                key = np.zeros(len(digits), dtype=np.int64)
                for pos in mentioned:
                    key = key * self.unrolls[pos] + digits[:, pos]
                _, first, counts = np.unique(key, return_index=True,
                                             return_counts=True)
                rows = digits[first][:, list(mentioned)]
            self._reps[mentioned] = rows, counts
        return self._reps[mentioned]

    def _closed_form(self, indices: tuple[AffineIndex, ...],
                     array: ArraySpec) -> _Traffic:
        """The module docstring's formulas for ``indices`` into an
        array of ``array``'s geometry."""
        dims = len(array.dims)
        indices = indices[:dims]
        # Coefficients by loop position (an extracted nest may repeat a
        # loop name; each position then takes that name's coefficient).
        table = [[index.coeff(name) for index in indices]
                 for name in self.names]
        mentioned = [pos for pos, row in enumerate(table) if any(row)]
        coeffs = np.array(table, dtype=np.int64).reshape(len(table), dims)
        # Mixed-radix weights, last dimension fastest: bank codes over
        # the partition factors, addresses over the per-bank extents.
        bank_weights, addr_weights = [1] * dims, [1] * dims
        for dim in range(dims - 2, -1, -1):
            factor = array.partition[dim + 1]
            bank_weights[dim] = bank_weights[dim + 1] * factor
            addr_weights[dim] = addr_weights[dim + 1] * max(
                1, array.dims[dim + 1] // factor)
        factors = np.array(array.partition, dtype=np.int64)
        bank_code = np.array(bank_weights, dtype=np.int64)

        def residues(codes) -> np.ndarray:
            """Decode bank codes back into per-dimension residues."""
            return np.array(list(codes), dtype=np.int64)[:, None] \
                // bank_code % factors

        # T: the bank residues the sequential part reaches.
        sequential = self.seq @ coeffs + np.array(
            [index.const for index in indices], dtype=np.int64)
        t_codes = set(((sequential % factors) @ bank_code).tolist())
        banks_per_pe = len(t_codes)

        # (β, α) of every representative, grouped by β.
        rows, counts = self.representatives(tuple(mentioned))
        quotients, beta_rows = np.divmod(rows @ coeffs[mentioned], factors)
        betas = (beta_rows @ bank_code).tolist()
        alphas = (quotients @ np.array(addr_weights, dtype=np.int64)).tolist()
        by_beta: dict[int, set[int]] = {}
        pes_by_beta: dict[int, int] = {}
        for beta, alpha, count in zip(betas, alphas, counts.tolist()):
            by_beta.setdefault(beta, set()).add(alpha)
            pes_by_beta[beta] = pes_by_beta.get(beta, 0) + count
        traces = sum(len(group) for group in by_beta.values())

        # Regular iff the traces' bank sets are disjoint: Σ|banks| =
        # traces·m must equal |∪_β (T + β)|. The union holds at most
        # m banks per β and at most total_banks overall, so it is
        # only built when neither bound already rules equality out.
        covered = traces * banks_per_pe
        regular = traces == len(by_beta) and covered <= array.total_banks
        if regular:
            union = (residues(t_codes)[:, None, :]
                     + residues(by_beta)[None, :, :]) % factors
            regular = len(set((union @ bank_code).ravel().tolist())) \
                == covered

        return _Traffic(
            banks_per_pe=banks_per_pe,
            regular=regular,
            read_pressure=max(len(group) for group in by_beta.values()),
            write_pressure=max(pes_by_beta.values()))

    def profile(self, access: AccessSpec) -> AccessProfile:
        array = self.kernel.array(access.array)
        if any(index.dynamic for index in access.indices):
            # Data-dependent index: any PE may hit any bank; the
            # scheduler must serialize all copies onto one port in the
            # worst case.
            total_banks = array.total_banks
            return AccessProfile(
                access=access,
                mux_degree=total_banks,
                port_pressure=self.n_pes,
                regular=total_banks == 1 and self.n_pes == 1,
                crossbar=total_banks >= 4,
                dynamic=True)
        # Accesses with the same indices into the same geometry (a
        # read-modify-write pair, say) share one computation.
        key = (access.indices, array.dims, array.partition)
        if key not in self._traffic:
            self._traffic[key] = self._closed_form(access.indices, array)
        traffic = self._traffic[key]
        mux_degree = max(1, traffic.banks_per_pe)
        return AccessProfile(
            access=access,
            mux_degree=mux_degree,
            port_pressure=(traffic.write_pressure if access.is_write
                           else traffic.read_pressure),
            regular=traffic.regular,
            crossbar=mux_degree >= 4,
            dynamic=False)


def analyze_access(kernel: KernelSpec, access: AccessSpec) -> AccessProfile:
    """Profile one access of ``kernel``."""
    return _Nest(kernel).profile(access)


def analyze_kernel(kernel: KernelSpec) -> dict[str, ArrayProfile]:
    """Profile every array of the kernel."""
    nest = _Nest(kernel)
    profiles: dict[str, list[AccessProfile]] = {}
    for access in kernel.accesses:
        profiles.setdefault(access.array, []).append(nest.profile(access))

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
