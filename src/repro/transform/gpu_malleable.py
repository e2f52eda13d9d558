"""Malleable GPU kernel generation (paper §6, Figures 5 and 6).

The transformation makes a data-parallel kernel's degree of parallelism
adjustable *in software* on hardware whose GPU scheduler cannot be told to
use fewer processing elements:

1. Two parameters are appended: ``dop_gpu_mod`` and ``dop_gpu_alloc``.
   Work-items are mapped linearly to the PEs of a compute unit, so a
   work-item's local index identifies its PE.  Only PEs with
   ``get_local_id(0) % dop_gpu_mod < dop_gpu_alloc`` execute work;
   the rest terminate immediately (Figure 5, line 13).
2. Because the GPU scheduler still assumes every work-item processes its
   own element, the surviving PEs drain the whole work-group from a
   CU-local atomic worklist (``local_worklist``), so no work is lost
   (lines 10–14).
3. Every use of ``get_global_id(d)`` inside the body is replaced with the
   index reconstructed from the dynamically fetched work id
   (lines 16–17); ``get_local_id(d)`` uses are rewritten likewise.
4. A ``return`` in the body ends one work item: it becomes ``continue``
   of the drain loop.  Kernels that return from inside their own loops
   are declined with :class:`TransformError`.

The transformation supports 1- and 2-dimensional ND-ranges (all paper
workloads; Figures 5 and 6 respectively) and 3-dimensional ranges by the
same decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend import ast
from ..frontend.semantics import KernelInfo, analyze_kernel
from . import rewriter as rw

#: Names injected by the transformation; the original kernel must not
#: already use them.
MOD_PARAM = "dop_gpu_mod"
ALLOC_PARAM = "dop_gpu_alloc"
WORKLIST_VAR = "local_worklist"
WORK_VAR = "dynamic_work"

_RESERVED = (MOD_PARAM, ALLOC_PARAM, WORKLIST_VAR, WORK_VAR)


class TransformError(Exception):
    """Raised when a kernel cannot be made malleable."""


@dataclass
class MalleableKernel:
    """The result of the malleable-GPU transformation.

    ``kernel`` is the transformed AST (already re-analysed), ``source`` the
    printed OpenCL-C text.  The transformed kernel takes the original
    arguments plus ``(dop_gpu_mod, dop_gpu_alloc)``.
    """

    kernel: ast.FunctionDef
    info: KernelInfo
    source: str
    work_dim: int

    @property
    def name(self) -> str:
        return self.kernel.name


def _local_linear_size(work_dim: int) -> ast.Expr:
    """``get_local_size(0) * ... * get_local_size(work_dim-1)``."""
    expr: ast.Expr = rw.get_work_item_call("get_local_size", 0)
    for dim in range(1, work_dim):
        expr = rw.binop("*", expr, rw.get_work_item_call("get_local_size", dim))
    return expr


def _dynamic_local_index(dim: int, work_dim: int) -> ast.Expr:
    """The local index along ``dim`` reconstructed from ``dynamic_work``.

    Follows Figure 6: for a 2-D range, dimension 0 is
    ``dynamic_work / get_local_size(1)`` and dimension 1 is
    ``dynamic_work % get_local_size(1)`` — i.e. the highest dimension
    varies fastest in the worklist order.
    """
    work = rw.ident(WORK_VAR)
    if work_dim == 1:
        return work
    # divide out all faster (higher-numbered) dimensions, then take modulo
    divisor: ast.Expr | None = None
    for faster in range(dim + 1, work_dim):
        size = rw.get_work_item_call("get_local_size", faster)
        divisor = size if divisor is None else rw.binop("*", divisor, size)
    index: ast.Expr = work if divisor is None else rw.binop("/", work, divisor)
    if dim > 0:
        index = rw.binop("%", index, rw.get_work_item_call("get_local_size", dim))
    return index


def _dynamic_global_id(dim: int, work_dim: int) -> ast.Expr:
    """Figure 5/6 lines 16–17: rebuild a global id from ``dynamic_work``."""
    base = rw.binop(
        "+",
        rw.binop(
            "*",
            rw.get_work_item_call("get_group_id", dim),
            rw.get_work_item_call("get_local_size", dim),
        ),
        rw.get_work_item_call("get_global_offset", dim),
    )
    return rw.binop("+", base, _dynamic_local_index(dim, work_dim))


def make_malleable(
    kernel_or_source: ast.FunctionDef | str | KernelInfo,
    work_dim: int,
    kernel_name: str | None = None,
) -> MalleableKernel:
    """Apply the Figure-5/6 transformation to a kernel.

    Accepts kernel source text, a parsed :class:`FunctionDef`, or an
    already-analysed :class:`KernelInfo` (which preserves helper-function
    context).  ``work_dim`` is the dimensionality the kernel will be
    launched with — part of the enqueue-time information, which is why
    Dopia generates the malleable variant per launch configuration.
    """
    if not 1 <= work_dim <= 3:
        raise TransformError(f"unsupported work dimension {work_dim}")
    if isinstance(kernel_or_source, KernelInfo):
        original_info = kernel_or_source
        kernel = original_info.kernel
    elif isinstance(kernel_or_source, str):
        from ..frontend.parser import parse

        unit_context = parse(kernel_or_source)
        if kernel_name is not None:
            kernel = unit_context.kernel(kernel_name)
        else:
            kernel = unit_context.kernels()[0]
        original_info = analyze_kernel(kernel, unit_context)
    else:
        kernel = kernel_or_source
        original_info = analyze_kernel(kernel)
    for name in _RESERVED:
        if name in original_info.symbols:
            raise TransformError(
                f"kernel already defines reserved name {name!r}"
            )
    if original_info.uses_barrier:
        raise TransformError(
            "kernels with work-group barriers cannot be throttled: the "
            "masked-off work-items would never reach the barrier"
        )

    new_kernel = rw.clone(kernel)
    assert isinstance(new_kernel, ast.FunctionDef)

    # 1. append throttle parameters
    int_type = ast.CType("int")
    new_kernel.params.append(rw.param(int_type, MOD_PARAM))
    new_kernel.params.append(rw.param(int_type, ALLOC_PARAM))

    # 2. rewrite id queries in the body against the dynamic work id
    def replace(node: ast.Call) -> ast.Expr | None:
        if node.name == "get_global_id" and node.args:
            dim_arg = node.args[0]
            if isinstance(dim_arg, ast.IntLiteral):
                return _dynamic_global_id(dim_arg.value, work_dim)
        if node.name == "get_local_id" and node.args:
            dim_arg = node.args[0]
            if isinstance(dim_arg, ast.IntLiteral) and dim_arg.value < work_dim:
                return _dynamic_local_index(dim_arg.value, work_dim)
        return None

    body = rw.end_item_on_return(
        rw.substitute_calls(new_kernel.body, replace), TransformError
    )
    assert isinstance(body, ast.Block)

    # 3. worklist drain loop (Figure 5 line 14)
    drain = ast.For(
        location=rw.SYNTH,
        init=rw.decl_stmt(
            int_type, WORK_VAR, init=rw.call("atomic_inc", rw.ident(WORKLIST_VAR))
        ),
        cond=rw.binop("<", rw.ident(WORK_VAR), _local_linear_size(work_dim)),
        step=rw.assign(
            rw.ident(WORK_VAR), rw.call("atomic_inc", rw.ident(WORKLIST_VAR))
        ),
        body=body,
    )

    # 4. PE throttle guard (Figure 5 line 13)
    guard = rw.if_stmt(
        rw.binop(
            "<",
            rw.binop("%", rw.get_work_item_call("get_local_id", 0), rw.ident(MOD_PARAM)),
            rw.ident(ALLOC_PARAM),
        ),
        rw.block(drain),
    )

    # 5. worklist declaration + initialisation + barrier (lines 10–12)
    local_int = ast.CType("int", address_space="local")
    preamble = [
        rw.decl_stmt(local_int, WORKLIST_VAR, dims=[rw.intlit(1)]),
        rw.if_stmt(
            rw.binop("==", rw.get_work_item_call("get_local_id", 0), rw.intlit(0)),
            rw.expr_stmt(
                rw.assign(
                    ast.Index(
                        location=rw.SYNTH, base=rw.ident(WORKLIST_VAR), index=rw.intlit(0)
                    ),
                    rw.intlit(0),
                )
            ),
        ),
        rw.expr_stmt(rw.call("barrier", rw.intlit(1))),
    ]

    new_kernel.body = rw.block(*preamble, guard)

    # Helper functions the kernel calls are emitted verbatim above the
    # transformed kernel so the output is a self-contained program.
    helper_sources = [
        rw.print_kernel(helper.kernel)
        for helper in original_info.user_functions.values()
    ]
    source = "\n\n".join(helper_sources + [rw.print_kernel(new_kernel)])
    # Round-trip through the frontend: guarantees the printed source is
    # valid and gives us a fresh KernelInfo for the transformed kernel.
    from ..frontend.parser import parse

    unit = parse(source)
    reparsed = unit.kernels()[-1]
    info = analyze_kernel(reparsed, unit)
    return MalleableKernel(kernel=reparsed, info=info, source=source, work_dim=work_dim)


def throttle_settings(total_pes_per_cu: int, active_fraction: float) -> tuple[int, int]:
    """Map a GPU utilisation fraction to ``(dop_gpu_mod, dop_gpu_alloc)``.

    The paper throttles in steps of 1/8 of the GPU (Table 3).  A fraction
    ``a/m`` (in lowest terms) activates the PEs whose local index modulo
    ``m`` is below ``a`` — e.g. 37.5 % = 3/8 activates indices 0,1,2 of
    every 8.  ``active_fraction`` must be in (0, 1].
    """
    if not 0.0 < active_fraction <= 1.0:
        raise ValueError("active_fraction must be in (0, 1]")
    # find the smallest denominator up to the CU width that represents the
    # fraction exactly enough (within half a PE)
    best = (1, 1)
    best_err = abs(active_fraction - 1.0)
    for mod in range(1, max(2, total_pes_per_cu) + 1):
        alloc = max(1, round(active_fraction * mod))
        if alloc > mod:
            alloc = mod
        err = abs(active_fraction - alloc / mod)
        if err < best_err - 1e-12:
            best = (mod, alloc)
            best_err = err
            if err < 1e-12:
                break
    mod, alloc = best
    return mod, alloc
