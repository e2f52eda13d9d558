"""NumPy references for every kernel the benchmark launches.

Each reference is written from the kernel's mathematical definition (the
Polybench formulas, CSR SpMV, one PageRank power step, the Table-2
synthetic semantics) and never calls into Dopia, so a wrong result from any
executor tier, schedule or transform shows up as a mismatch.

A reference takes the launch's argument dict as it was *before* the launch
and returns ``{buffer name: expected contents after the launch}``.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-6
ATOL = 1e-8


def _conv2d(a):
    ni, nj = int(a["ni"]), int(a["nj"])
    A = a["A"].reshape(ni, nj)
    B = a["B"].reshape(ni, nj).copy()
    c = {(1, 1): 0.2, (2, 1): 0.5, (3, 1): -0.8,
         (1, 2): -0.3, (2, 2): 0.6, (3, 2): -0.9,
         (1, 3): 0.4, (2, 3): 0.7, (3, 3): 0.1}
    # c{col}{row}: column offset (col - 2) on j, row offset (row - 2) on i
    inner = np.zeros((ni - 2, nj - 2))
    for (col, row), coeff in c.items():
        di, dj = row - 2, col - 2
        inner += coeff * A[1 + di:ni - 1 + di, 1 + dj:nj - 1 + dj]
    B[1:ni - 1, 1:nj - 1] = inner
    return {"B": B.ravel()}


def _atax1(a):
    nx, ny = int(a["nx"]), int(a["ny"])
    return {"tmp": a["A"].reshape(nx, ny) @ a["x"]}


def _atax2(a):
    nx, ny = int(a["nx"]), int(a["ny"])
    return {"y": a["A"].reshape(nx, ny).T @ a["tmp"]}


def _bicg1(a):
    nx, ny = int(a["nx"]), int(a["ny"])
    return {"s": a["A"].reshape(nx, ny).T @ a["r"]}


def _bicg2(a):
    nx, ny = int(a["nx"]), int(a["ny"])
    return {"q": a["A"].reshape(nx, ny) @ a["p"]}


def _fdtd1(a):
    nx, ny, t = int(a["nx"]), int(a["ny"]), int(a["t"])
    ey = a["ey"].reshape(nx + 1, ny).copy()
    hz = a["hz"].reshape(nx, ny)
    ey[1:nx] = ey[1:nx] - 0.5 * (hz[1:nx] - hz[0:nx - 1])
    ey[0] = a["_fict_"][t]
    return {"ey": ey.ravel()}


def _fdtd2(a):
    nx, ny = int(a["nx"]), int(a["ny"])
    ex = a["ex"].reshape(nx, ny + 1).copy()
    hz = a["hz"].reshape(nx, ny)
    ex[:, 1:ny] = ex[:, 1:ny] - 0.5 * (hz[:, 1:ny] - hz[:, 0:ny - 1])
    return {"ex": ex.ravel()}


def _fdtd3(a):
    nx, ny = int(a["nx"]), int(a["ny"])
    ex = a["ex"].reshape(nx, ny + 1)
    ey = a["ey"].reshape(nx + 1, ny)
    hz = a["hz"].reshape(nx, ny)
    out = hz - 0.7 * (ex[:, 1:] - ex[:, :-1] + ey[1:] - ey[:-1])
    return {"hz": out.ravel()}


def _gesummv(a):
    n = int(a["n"])
    tmp = a["A"].reshape(n, n) @ a["x"]
    y = a["B"].reshape(n, n) @ a["x"]
    return {"tmp": tmp, "y": a["alpha"] * tmp + a["beta"] * y}


def _mvt1(a):
    n = int(a["n"])
    return {"x1": a["x1"] + a["A"].reshape(n, n) @ a["y1"]}


def _mvt2(a):
    n = int(a["n"])
    return {"x2": a["x2"] + a["A"].reshape(n, n).T @ a["y2"]}


def _syr2k(a):
    n, m = int(a["n"]), int(a["m"])
    A = a["A"].reshape(n, m)
    B = a["B"].reshape(n, m)
    C = a["C"].reshape(n, n)
    out = a["beta"] * C + a["alpha"] * (A @ B.T + B @ A.T)
    return {"C": out.ravel()}


def _csr_rows(rowptr):
    return np.repeat(np.arange(len(rowptr) - 1), np.diff(rowptr))


def _spmv(a):
    n = int(a["n"])
    rows = _csr_rows(a["rowptr"])
    y = np.bincount(rows, weights=a["vals"] * a["x"][a["colidx"]],
                    minlength=n)
    return {"y": y}


def _pagerank(a):
    n = int(a["n"])
    d = float(a["damping"])
    rows = _csr_rows(a["rowptr"])
    contrib = (a["rank"] * a["inv_outdeg"])[a["colidx"]]
    sums = np.bincount(rows, weights=contrib, minlength=n)
    return {"new_rank": (1.0 - d) / n + d * sums}


#: kernel function name -> reference
KERNEL_REFERENCES = {
    "conv2d": _conv2d,
    "atax_kernel1": _atax1,
    "atax_kernel2": _atax2,
    "bicg_kernel1": _bicg1,
    "bicg_kernel2": _bicg2,
    "fdtd_step1": _fdtd1,
    "fdtd_step2": _fdtd2,
    "fdtd_step3": _fdtd3,
    "gesummv": _gesummv,
    "mvt_kernel1": _mvt1,
    "mvt_kernel2": _mvt2,
    "syr2k": _syr2k,
    "spmv_csr": _spmv,
    "pagerank_step": _pagerank,
}

_ADDENDS = "ABDEFGH"


def synthetic_reference(spec, a):
    """Table-2 semantics: C = sum over addends of (prod c_k) * access.

    Plain addends read ``M[idx]``, transposed ones read the matrix laid out
    with its dimensions reversed, randomised ones read ``M[IDX[idx]]`` and
    constant ones ``M[cidx]``.  Integer kernels are computed exactly in
    int64.
    """
    names = ["NZ", "NY", "NX", "NW"][:spec.beta]
    shape = tuple(int(a[d]) for d in names)
    total = int(np.prod(shape))
    dtype = np.int64 if spec.dtype == "int" else np.float64
    factor = dtype(1)
    for k in range(spec.gamma):
        factor = factor * dtype(a[f"c{k + 1}"])
    n_addends = max(spec.alpha, spec.delta + spec.epsilon + spec.theta)
    plain = n_addends - spec.delta - spec.epsilon - spec.theta
    out = np.zeros(shape, dtype=dtype)
    for position in range(n_addends):
        M = np.asarray(a[_ADDENDS[position]], dtype=dtype)[:total]
        if position < plain:
            term = M.reshape(shape)
        elif position < plain + spec.delta:
            term = M.reshape(shape[::-1]).transpose(tuple(range(spec.beta))[::-1])
        elif position < plain + spec.delta + spec.epsilon:
            term = M[np.asarray(a["IDX"])[:total].reshape(shape)]
        else:
            term = np.full(shape, M[int(a["cidx"])])
        out = out + factor * term
    return {"C": out.ravel()}


def matches(actual: dict, expected: dict) -> bool:
    """Do the launch's buffers hold the expected contents?"""
    for name, want in expected.items():
        got = np.asarray(actual[name])
        if got.shape != want.shape:
            return False
        if np.issubdtype(want.dtype, np.integer):
            if not np.array_equal(got, want):
                return False
        elif not np.allclose(got, want, rtol=RTOL, atol=ATOL):
            return False
    return True
