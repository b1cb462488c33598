"""Hashing-based P2HNNS baselines: NH, FH, and the classic hyperplane hashes.

These reimplement the two state-of-the-art baselines the paper compares
against (NH and FH from Huang et al., SIGMOD 2021) together with the
asymmetric tensor-lift transformation they rely on, plus the older
angle-based hyperplane hashing schemes (AH/EH and their bilinear /
multilinear descendants BH/MH) that only work for unit-norm data
(Section VI related work).

All four index families share the whole-batch kernel in
:mod:`repro.hashing.base`, so their ``batch_search`` is answered in
chunked block calls by the execution engine (bit-identical to sequential
``search``, which runs the same kernel on one row).  NH/FH probe their
projection tables with fully batched array kernels; the bucket-based
AH/EH/BH/MH schemes run the same kernel protocol but keep hash-code
computation, bucket lookups, and verification per row (their sign kernels
must match the sequential path bit for bit).
"""

from repro.hashing.angular import AngularHyperplaneHash
from repro.hashing.base import HashingIndex
from repro.hashing.fh import FHIndex
from repro.hashing.multilinear import MultilinearHyperplaneHash
from repro.hashing.nh import NHIndex
from repro.hashing.transform import (
    SampledLift,
    TensorLift,
    lift_dimension,
)

__all__ = [
    "NHIndex",
    "FHIndex",
    "HashingIndex",
    "AngularHyperplaneHash",
    "MultilinearHyperplaneHash",
    "TensorLift",
    "SampledLift",
    "lift_dimension",
]
