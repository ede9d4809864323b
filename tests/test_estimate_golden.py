"""Golden estimates: the HLS estimator's reports must never drift silently.

Every DSE result — ``sweep``, ``explore()``, frontier queries, the
``/estimate`` endpoint and ``cli estimate`` — is built from
:func:`repro.hls.estimate`. The DSE parity suites compare those paths
with each other, so a change inside the estimator moves all of them at
once and none of them notices. These tests pin one SHA-256 per group
over every :class:`~repro.hls.Report` field of a fixed set of kernels:

* every 16th configuration of each ``DSE_FAMILIES`` space;
* the kernels extracted from every 128th configuration's Dahlia source
  (accepted ones), the path ``/estimate`` and ``cli estimate`` take;
* every ``suite.ports`` kernel;
* the §2.1 gemm study of Fig. 4 (``section2_gemm_kernel``) over
  unroll × partition ∈ 1..16 × 1..16, covering Figs. 4a–4c.

If a digest change is *intentional* (a deliberate estimator model
change), regenerate the pins in the same commit with
``PYTHONPATH=src:. python tests/test_estimate_golden.py`` from the
repository root, and say so in its message: every recorded DSE result
moves with it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import pytest

from benchmarks.helpers import section2_gemm_kernel
from repro.errors import DahliaError
from repro.hls import Report, estimate, extract_from_source
from repro.suite import ALL_PORTS, generators

#: Configuration stride through each DSE family's enumeration order.
STRIDE = 16
#: The same for the extracted sources (parsing and checking cost more).
EXTRACT_STRIDE = 128
#: The Fig. 4 grid: unroll and partition factors of the §2.1 gemm.
FIG4_FACTORS = range(1, 17)

#: The pinned groups, in digest order.
GROUPS = (*sorted(generators.DSE_FAMILIES), "extracted", "ports", "fig4")

GOLDEN: dict[str, str] = {
    "gemm-blocked":
        "45e4672c5c8492f534c604bdec2cf17f366fdda664543e1c00a0c5a1700e99c8",
    "md-grid":
        "2df77c7d9936b25952105274619b24523774c939ed470f9892544bcfd73fde49",
    "md-knn":
        "3a203b0a33b1d19bd54e5229e761948c2ee67b7fce99f1dcc79c9ade3ec40d44",
    "stencil2d":
        "dcd58ddbfeed55d9bc4a5193b8eae13b1bbb211c505b66fbc6ab4ad3fd2fb760",
    "extracted":
        "943854c61d913d807dd449a980f8868c477c4a05b72753d48a49e11053fd751b",
    "ports":
        "6179104e262793fe3ee100c4151a04ad17f4544922e83a3075b4bdda720ba5fc",
    "fig4":
        "4dc0b6dc58b723fcfdf711f7953d63beb7ad9a219fffcec3aec5d84bbb6d10ae",
}


def _extracted():
    for name in sorted(generators.DSE_FAMILIES):
        space_fn, source_fn, _ = generators.resolve_family(name)
        for config in list(space_fn())[::EXTRACT_STRIDE]:
            try:
                kernel = extract_from_source(source_fn(config))
            except DahliaError:                 # rejected by the checker
                continue
            yield f"{name}:{sorted(config.items())!r}", kernel


@functools.cache                  # shared with test_banking_differential
def pinned_kernels(group: str) -> tuple:
    """``(label, kernel)`` pairs of one pinned group, in a fixed order."""
    if group == "extracted":
        return tuple(_extracted())
    if group == "ports":
        return tuple((name, port.kernel) for name, port in ALL_PORTS.items())
    if group == "fig4":
        return tuple((f"u{unroll}p{partition}",
                      section2_gemm_kernel(unroll, partition))
                     for unroll in FIG4_FACTORS
                     for partition in FIG4_FACTORS)
    space_fn, _, kernel_fn = generators.resolve_family(group)
    return tuple((repr(sorted(config.items())), kernel_fn(config))
                 for config in list(space_fn())[::STRIDE])


def report_digest(group: str) -> str:
    """SHA-256 over every field of every report of ``group``."""
    digest = hashlib.sha256()
    for label, kernel in pinned_kernels(group):
        report = estimate(kernel)
        fields = ";".join(f"{field.name}={getattr(report, field.name)!r}"
                          for field in dataclasses.fields(Report))
        digest.update(f"{label}|{fields}\n".encode())
    return digest.hexdigest()


def test_golden_covers_every_family():
    assert set(GOLDEN) == set(GROUPS)


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_estimate_golden(group):
    assert report_digest(group) == GOLDEN[group], (
        f"estimator reports drifted for {group!r}; read the module "
        "docstring before regenerating the pins")


if __name__ == "__main__":
    for name in GROUPS:
        print(f'    "{name}":\n        "{report_digest(name)}",')
