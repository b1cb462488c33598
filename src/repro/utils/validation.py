"""Input validation helpers shared by all indexes and generators."""

from __future__ import annotations

from typing import Optional

import numpy as np


def check_points_matrix(
    points: np.ndarray,
    *,
    name: str = "points",
    min_rows: int = 1,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Validate and normalize a 2-D point matrix.

    Parameters
    ----------
    points:
        Array-like of shape ``(n, d)``.
    name:
        Name used in error messages.
    min_rows:
        Minimum number of rows required.
    dtype:
        Target floating dtype; the array is converted (and copied if needed).

    Returns
    -------
    numpy.ndarray
        A C-contiguous ``float`` array of shape ``(n, d)``.

    Raises
    ------
    ValueError
        If the array is not 2-D, is empty, or contains non-finite values.
    """
    arr = np.asarray(points, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n, d), got shape {arr.shape}")
    if arr.shape[0] < min_rows:
        raise ValueError(
            f"{name} must contain at least {min_rows} row(s), got {arr.shape[0]}"
        )
    if arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one column")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_query_vector(
    query: np.ndarray,
    *,
    expected_dim: Optional[int] = None,
    name: str = "query",
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Validate a single 1-D query vector.

    Parameters
    ----------
    query:
        Array-like of shape ``(d,)``.
    expected_dim:
        If given, the required length of the vector.
    name:
        Name used in error messages.
    dtype:
        Target floating dtype.

    Returns
    -------
    numpy.ndarray
        A contiguous 1-D float array.

    Raises
    ------
    ValueError
        If the vector has the wrong shape, wrong dimension, or non-finite
        entries.
    """
    arr = np.asarray(query, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if expected_dim is not None and arr.shape[0] != expected_dim:
        raise ValueError(
            f"{name} must have dimension {expected_dim}, got {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_query_matrix(
    queries: np.ndarray,
    *,
    expected_dim: Optional[int] = None,
    name: str = "queries",
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Validate a query block, promoting a single vector to one row.

    The one promotion/shape/finiteness check shared by the engine's batch
    dispatch and the indexes' vectorized kernels, so batch and sequential
    error behavior cannot drift apart.

    Parameters
    ----------
    queries:
        Array-like of shape ``(q, d)`` or a single ``(d,)`` vector.
    expected_dim:
        If given, the required number of columns.
    name:
        Name used in error messages.
    dtype:
        Target floating dtype.

    Returns
    -------
    numpy.ndarray
        A C-contiguous 2-D float array.

    Raises
    ------
    ValueError
        If the input is not promotable to 2-D, has the wrong dimension, or
        contains non-finite entries.
    """
    matrix = np.ascontiguousarray(
        np.atleast_2d(np.asarray(queries, dtype=dtype))
    )
    if matrix.ndim != 2:
        raise ValueError(
            f"{name} must be a vector or a 2-D matrix, got shape {matrix.shape}"
        )
    if expected_dim is not None and matrix.shape[1] != expected_dim:
        raise ValueError(
            f"{name} must have dimension {expected_dim}, got {matrix.shape[1]}"
        )
    if not np.isfinite(matrix).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return matrix


def check_positive_int(value: int, *, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer of at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value)!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_fraction(value: float, *, name: str, allow_none: bool = True):
    """Validate a fraction in ``(0, 1]`` (optionally allowing ``None``)."""
    if value is None:
        if allow_none:
            return None
        raise ValueError(f"{name} must not be None")
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")
    return value
