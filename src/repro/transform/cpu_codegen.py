"""CPU code generation (paper §6, Figure 7).

Dopia generates a CPU version of every OpenCL kernel: a function that one
CPU thread calls to repeatedly *pull* a work-group index from a shared
atomic worklist and execute that work-group's items sequentially.

The generated code here is itself expressed in the OpenCL-C subset so that
the same frontend and interpreter can compile and execute it — launching
the generated function with ``T`` work-items of work-group size 1 models
``T`` CPU threads exactly as Figure 7's pthread-style code does:

* each launched item is one CPU thread,
* all threads share a one-element global ``wg_worklist`` buffer and claim
  work-groups with ``atomic_inc`` (Figure 7 line 10),
* the original ND-range geometry is passed in via scalar parameters
  (``dopia_ls0`` …), and every ``get_*`` query of the original kernel is
  rewritten against the claimed work-group id and the sequential item loop
  (Figure 7 lines 12–14).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend import ast
from ..frontend.semantics import KernelInfo, analyze_kernel
from . import rewriter as rw

WORKLIST_PARAM = "dopia_wg_worklist"
NUM_WGS_PARAM = "dopia_num_wgs"
WG_VAR = "dopia_wg_id"
ITEM_VAR = "dopia_item"

_GEOM_PARAMS = ("dopia_ls0", "dopia_ls1", "dopia_ls2",
                "dopia_ng0", "dopia_ng1", "dopia_ng2")


class CpuTransformError(Exception):
    """Raised when a kernel cannot be lowered to the CPU form."""


@dataclass
class CpuKernel:
    """The generated CPU variant of a kernel.

    ``source`` is OpenCL-C text for a kernel named ``<orig>_cpu`` taking
    the original arguments followed by
    ``(__global int* dopia_wg_worklist, int dopia_num_wgs,
    int dopia_ls0..2, int dopia_ng0..2)``.
    Launch it with an ND-range of ``(num_threads,)`` / local size 1.
    """

    kernel: ast.FunctionDef
    info: KernelInfo
    source: str
    work_dim: int
    #: how threads claim work-groups: "atomic" (fetch-add worklist) or
    #: "relaxed" (static stride; requires a race-clean verdict)
    claims: str = "atomic"

    @property
    def name(self) -> str:
        return self.kernel.name

    def scheduler_args(
        self, num_work_groups: int, local_size: tuple[int, ...],
        num_groups: tuple[int, ...],
    ) -> dict[str, int]:
        """The extra scalar arguments describing the original geometry."""
        ls = tuple(local_size) + (1, 1, 1)
        ng = tuple(num_groups) + (1, 1, 1)
        return {
            NUM_WGS_PARAM: num_work_groups,
            "dopia_ls0": ls[0], "dopia_ls1": ls[1], "dopia_ls2": ls[2],
            "dopia_ng0": ng[0], "dopia_ng1": ng[1], "dopia_ng2": ng[2],
        }


def _wg_component(dim: int, work_dim: int) -> ast.Expr:
    """Decompose the linear work-group id (dimension 0 fastest)."""
    expr: ast.Expr = rw.ident(WG_VAR)
    for slower in range(dim):
        expr = rw.binop("/", expr, rw.ident(f"dopia_ng{slower}"))
    if dim < work_dim - 1:
        expr = rw.binop("%", expr, rw.ident(f"dopia_ng{dim}"))
    return expr


def _item_component(dim: int, work_dim: int) -> ast.Expr:
    """Decompose the linear local item id (dimension 0 fastest)."""
    expr: ast.Expr = rw.ident(ITEM_VAR)
    for slower in range(dim):
        expr = rw.binop("/", expr, rw.ident(f"dopia_ls{slower}"))
    if dim < work_dim - 1:
        expr = rw.binop("%", expr, rw.ident(f"dopia_ls{dim}"))
    return expr


def make_cpu_kernel(
    kernel_or_source: ast.FunctionDef | str | KernelInfo,
    work_dim: int,
    kernel_name: str | None = None,
    claims: str = "atomic",
) -> CpuKernel:
    """Generate the Figure-7 CPU variant of a kernel.

    Accepts source text, a parsed :class:`FunctionDef`, or an analysed
    :class:`KernelInfo` (preserving helper-function context).

    ``claims`` selects how threads claim work-groups from the worklist:

    * ``"atomic"`` — Figure 7's ``atomic_inc`` fetch-add on the shared
      worklist buffer (always safe; the default).
    * ``"relaxed"`` — a static strided schedule: thread ``t`` of ``T``
      claims work-groups ``t, t+T, t+2T, …`` with no shared counter at
      all.  Only sound when the kernel is race-free across work-groups,
      i.e. when ``analysis.verify`` returned a race-clean verdict — the
      caller is responsible for checking (see ``runtime.cpu_variant``).
      The worklist parameter stays in the signature so launch plumbing
      is identical for both forms.
    """
    if not 1 <= work_dim <= 3:
        raise CpuTransformError(f"unsupported work dimension {work_dim}")
    if claims not in ("atomic", "relaxed"):
        raise CpuTransformError(f"unknown claim discipline {claims!r}")
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
    if original_info.uses_barrier:
        raise CpuTransformError(
            "kernels with barriers need lock-step CPU execution; the "
            "Figure-7 sequential item loop does not apply"
        )
    reserved = {WORKLIST_PARAM, NUM_WGS_PARAM, WG_VAR, ITEM_VAR, *_GEOM_PARAMS}
    clash = reserved & set(original_info.symbols.symbols)
    if clash:
        raise CpuTransformError(f"kernel uses reserved names {sorted(clash)}")

    new_kernel = rw.clone(kernel)
    assert isinstance(new_kernel, ast.FunctionDef)
    new_kernel.name = f"{kernel.name}_cpu"

    int_type = ast.CType("int")
    new_kernel.params.append(
        rw.param(ast.CType("int", pointer=True, address_space="global"), WORKLIST_PARAM)
    )
    new_kernel.params.append(rw.param(int_type, NUM_WGS_PARAM))
    for name in _GEOM_PARAMS:
        new_kernel.params.append(rw.param(int_type, name))

    def replace(node: ast.Call) -> ast.Expr | None:
        if not node.args or not isinstance(node.args[0], ast.IntLiteral):
            if node.name == "get_work_dim":
                return rw.intlit(work_dim)
            return None
        dim = node.args[0].value
        if node.name == "get_global_id":
            if dim >= work_dim:
                return rw.intlit(0)
            return rw.binop(
                "+",
                rw.binop("*", _wg_component(dim, work_dim), rw.ident(f"dopia_ls{dim}")),
                _item_component(dim, work_dim),
            )
        if node.name == "get_local_id":
            return _item_component(dim, work_dim) if dim < work_dim else rw.intlit(0)
        if node.name == "get_group_id":
            return _wg_component(dim, work_dim) if dim < work_dim else rw.intlit(0)
        if node.name == "get_local_size":
            return rw.ident(f"dopia_ls{dim}") if dim < work_dim else rw.intlit(1)
        if node.name == "get_num_groups":
            return rw.ident(f"dopia_ng{dim}") if dim < work_dim else rw.intlit(1)
        if node.name == "get_global_size":
            if dim >= work_dim:
                return rw.intlit(1)
            return rw.binop("*", rw.ident(f"dopia_ng{dim}"), rw.ident(f"dopia_ls{dim}"))
        if node.name == "get_global_offset":
            return rw.intlit(0)
        return None

    body = rw.end_item_on_return(
        rw.substitute_calls(new_kernel.body, replace), CpuTransformError
    )
    assert isinstance(body, ast.Block)

    # items-per-group product
    items: ast.Expr = rw.ident("dopia_ls0")
    for dim in range(1, work_dim):
        items = rw.binop("*", items, rw.ident(f"dopia_ls{dim}"))

    item_loop = ast.For(
        location=rw.SYNTH,
        init=rw.decl_stmt(int_type, ITEM_VAR, init=rw.intlit(0)),
        cond=rw.binop("<", rw.ident(ITEM_VAR), items),
        step=ast.PostfixOp(location=rw.SYNTH, op="++", operand=rw.ident(ITEM_VAR)),
        body=body,
    )
    if claims == "relaxed":
        # Static strided schedule over the generated kernel's own launch
        # geometry (T threads, local size 1): thread t claims work-groups
        # t, t+T, t+2T, …  No shared counter, no fetch-add.  These get_*
        # calls are deliberately built *after* ``substitute_calls`` — they
        # query the outer CPU launch, not the original ND-range.
        wg_loop = ast.For(
            location=rw.SYNTH,
            init=rw.decl_stmt(
                int_type, WG_VAR, init=rw.call("get_global_id", rw.intlit(0))
            ),
            cond=rw.binop("<", rw.ident(WG_VAR), rw.ident(NUM_WGS_PARAM)),
            step=rw.assign(
                rw.ident(WG_VAR),
                rw.binop("+", rw.ident(WG_VAR),
                         rw.call("get_global_size", rw.intlit(0))),
            ),
            body=rw.block(item_loop),
        )
    else:
        wg_loop = ast.For(
            location=rw.SYNTH,
            init=rw.decl_stmt(
                int_type, WG_VAR, init=rw.call("atomic_inc", rw.ident(WORKLIST_PARAM))
            ),
            cond=rw.binop("<", rw.ident(WG_VAR), rw.ident(NUM_WGS_PARAM)),
            step=rw.assign(
                rw.ident(WG_VAR), rw.call("atomic_inc", rw.ident(WORKLIST_PARAM))
            ),
            body=rw.block(item_loop),
        )
    new_kernel.body = rw.block(wg_loop)

    helper_sources = [
        rw.print_kernel(helper.kernel)
        for helper in original_info.user_functions.values()
    ]
    source = "\n\n".join(helper_sources + [rw.print_kernel(new_kernel)])
    from ..frontend.parser import parse

    unit = parse(source)
    reparsed = unit.kernels()[-1]
    info = analyze_kernel(reparsed, unit)
    return CpuKernel(kernel=reparsed, info=info, source=source,
                     work_dim=work_dim, claims=claims)
